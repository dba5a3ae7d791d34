package pathexpr

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	t.Parallel()
	cases := []struct {
		src  string
		want string // canonical String()
	}{
		{"path Acquire ; Release end", "path Acquire ; Release end"},
		{"Acquire ; Release", "path Acquire ; Release end"},
		{"path Send , Receive end", "path Send , Receive end"},
		{"path a ; (b , c) ; d end", "path a ; (b , c) ; d end"},
		{"path { Read } ; Write end", "path { Read } ; Write end"},
		{"path [ Init ] ; Work end", "path [ Init ] ; Work end"},
		{"path Open ; { Read , Write } ; Close end", "path Open ; { Read , Write } ; Close end"},
		{"onlyone", "path onlyone end"},
		{"path x_1 ; y2 end", "path x_1 ; y2 end"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.src, func(t *testing.T) {
			t.Parallel()
			p, err := Parse(tc.src)
			if err != nil {
				t.Fatalf("Parse(%q) error: %v", tc.src, err)
			}
			if got := p.String(); got != tc.want {
				t.Fatalf("String() = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	cases := []string{
		"",
		"path end",
		"path ; end",
		"path a ;; b end",
		"path (a ; b end",
		"path a ) end",
		"path { a end",
		"path [ a } end",
		"path a b end", // juxtaposition is not an operator
		"path a ; b end trailing",
		"path 3 end",
		"path a-b end",
	}
	for _, src := range cases {
		src := src
		t.Run(src, func(t *testing.T) {
			t.Parallel()
			if _, err := Parse(src); err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", src)
			}
		})
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	t.Parallel()
	_, err := Parse("path a ? b end")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("error %v is not a *SyntaxError", err)
	}
	if serr.Pos != 7 {
		t.Fatalf("SyntaxError.Pos = %d, want 7", serr.Pos)
	}
}

func TestCanonicalStringReparses(t *testing.T) {
	t.Parallel()
	srcs := []string{
		"path Acquire ; Release end",
		"path a ; (b , c) ; d end",
		"path { a , b ; c } end",
		"path [ a ; { b } ] ; c end",
	}
	for _, src := range srcs {
		p1 := MustParse(src)
		p2, err := Parse(p1.String())
		if err != nil {
			t.Fatalf("canonical form %q does not reparse: %v", p1.String(), err)
		}
		if p1.String() != p2.String() {
			t.Fatalf("canonical form unstable: %q vs %q", p1.String(), p2.String())
		}
	}
}

func TestSymbolsAndMentions(t *testing.T) {
	t.Parallel()
	p := MustParse("path Open ; { Read , Write } ; Close end")
	got := p.Symbols()
	want := []string{"Close", "Open", "Read", "Write"}
	if len(got) != len(want) {
		t.Fatalf("Symbols = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Symbols = %v, want %v", got, want)
		}
	}
	if !p.Mentions("Read") || p.Mentions("Seek") {
		t.Fatal("Mentions gave wrong answers")
	}
}

// TestMentionsDoesNotAllocate pins the realtime checker's per-event
// cost: Mentions runs twice per checked call, so it must look the name
// up in the set Parse built, not rebuild the set. Not parallel:
// AllocsPerRun counts every allocation in the process.
func TestMentionsDoesNotAllocate(t *testing.T) {
	p := MustParse("path Open ; { Read , Write } ; Close end")
	allocs := testing.AllocsPerRun(100, func() {
		if !p.Mentions("Read") || p.Mentions("Seek") {
			t.Fatal("Mentions gave wrong answers")
		}
	})
	if allocs != 0 {
		t.Fatalf("Mentions allocates %v times per call, want 0", allocs)
	}
}

func TestAcceptsAcquireRelease(t *testing.T) {
	t.Parallel()
	p := MustParse("path Acquire ; Release end")
	cases := []struct {
		word   []string
		accept bool
		prefix bool
	}{
		{nil, true, true},
		{[]string{"Acquire"}, false, true},
		{[]string{"Acquire", "Release"}, true, true},
		{[]string{"Acquire", "Release", "Acquire"}, false, true},
		{[]string{"Acquire", "Release", "Acquire", "Release"}, true, true},
		{[]string{"Release"}, false, false},
		{[]string{"Acquire", "Acquire"}, false, false},
	}
	for _, tc := range cases {
		if got := p.Accepts(tc.word); got != tc.accept {
			t.Errorf("Accepts(%v) = %v, want %v", tc.word, got, tc.accept)
		}
		if got := p.ValidPrefix(tc.word); got != tc.prefix {
			t.Errorf("ValidPrefix(%v) = %v, want %v", tc.word, got, tc.prefix)
		}
	}
}

func TestMatcherDetectsOrderingFaults(t *testing.T) {
	t.Parallel()
	p := MustParse("path Acquire ; Release end")

	m := p.NewMatcher()
	// User-level fault III.a: release before acquire.
	err := m.Step("Release")
	var oe *OrderError
	if !errors.As(err, &oe) {
		t.Fatalf("Step(Release) = %v, want *OrderError", err)
	}
	if oe.Call != "Release" || len(oe.Expected) != 1 || oe.Expected[0] != "Acquire" {
		t.Fatalf("OrderError = %+v", oe)
	}
	if !strings.Contains(oe.Error(), "Release") {
		t.Fatalf("Error() = %q, want mention of the call", oe.Error())
	}

	// User-level fault III.c: acquire twice without release.
	m2 := p.NewMatcher()
	if err := m2.Step("Acquire"); err != nil {
		t.Fatalf("Step(Acquire): %v", err)
	}
	if err := m2.Step("Acquire"); err == nil {
		t.Fatal("double Acquire accepted")
	}
}

func TestMatcherViolationLeavesStateUsable(t *testing.T) {
	t.Parallel()
	p := MustParse("path Acquire ; Release end")
	m := p.NewMatcher()
	if err := m.Step("Acquire"); err != nil {
		t.Fatal(err)
	}
	if err := m.Step("Acquire"); err == nil {
		t.Fatal("double Acquire accepted")
	}
	// The failed step must not corrupt the matcher: Release is still the
	// expected continuation.
	if err := m.Step("Release"); err != nil {
		t.Fatalf("Step(Release) after violation: %v", err)
	}
	if !m.AtCycleBoundary() {
		t.Fatal("matcher not at cycle boundary after Acquire Release")
	}
}

func TestMatcherIgnoresUnmentionedProcedures(t *testing.T) {
	t.Parallel()
	p := MustParse("path Acquire ; Release end")
	m := p.NewMatcher()
	if err := m.Step("Status"); err != nil {
		t.Fatalf("unmentioned procedure rejected: %v", err)
	}
	var oe *OrderError
	if err := m.Step("Release"); !errors.As(err, &oe) || len(oe.History) != 0 {
		t.Fatalf("Step(Release) = %v, want an *OrderError with an empty history", err)
	}
}

func TestMatcherCycleBoundaryAndReset(t *testing.T) {
	t.Parallel()
	p := MustParse("path Acquire ; Release end")
	m := p.NewMatcher()
	if !m.AtCycleBoundary() {
		t.Fatal("fresh matcher must be at a cycle boundary")
	}
	if err := m.Step("Acquire"); err != nil {
		t.Fatal(err)
	}
	if m.AtCycleBoundary() {
		t.Fatal("pending Release but AtCycleBoundary = true")
	}
	exp := m.Expected()
	if len(exp) != 1 || exp[0] != "Release" {
		t.Fatalf("Expected = %v, want [Release]", exp)
	}
	m.Reset()
	if !m.AtCycleBoundary() {
		t.Fatal("Reset did not restore the start state")
	}
	var oe *OrderError
	if err := m.Step("Release"); !errors.As(err, &oe) || len(oe.History) != 0 {
		t.Fatalf("Step(Release) after Reset = %v, want an *OrderError with an empty history", err)
	}
}

// TestMatcherHistoryRestartsEachTraversal pins that a matcher keeps
// only the calls since its last completed traversal: after 10,000
// whole traversals, a violating call reports the same error as on a
// fresh matcher.
func TestMatcherHistoryRestartsEachTraversal(t *testing.T) {
	t.Parallel()
	p := MustParse("path Open ; { Read , Write } ; Close end")
	m := p.NewMatcher()
	for i := 0; i < 10_000; i++ {
		for _, call := range []string{"Open", "Read", "Write", "Read", "Close"} {
			if err := m.Step(call); err != nil {
				t.Fatalf("traversal %d: Step(%s): %v", i, call, err)
			}
		}
	}
	var oe *OrderError
	if err := m.Step("Read"); !errors.As(err, &oe) {
		t.Fatalf("Step(Read) = %v, want *OrderError", err)
	}
	if len(oe.History) != 0 {
		t.Fatalf("History holds %d calls after whole traversals, want 0", len(oe.History))
	}
	if want := p.NewMatcher().Step("Read").Error(); oe.Error() != want {
		t.Fatalf("Error() = %q, want the fresh matcher's %q", oe.Error(), want)
	}
}

func TestSelectionAllowsEitherAlternative(t *testing.T) {
	t.Parallel()
	p := MustParse("path Send , Receive end")
	for _, word := range [][]string{
		{"Send"},
		{"Receive"},
		{"Send", "Receive", "Receive", "Send"},
	} {
		if !p.Accepts(word) {
			t.Errorf("Accepts(%v) = false, want true", word)
		}
	}
}

func TestRepetitionAndOption(t *testing.T) {
	t.Parallel()
	p := MustParse("path Open ; { Read } ; [ Sync ] ; Close end")
	accepted := [][]string{
		{"Open", "Close"},
		{"Open", "Read", "Close"},
		{"Open", "Read", "Read", "Read", "Sync", "Close"},
		{"Open", "Sync", "Close", "Open", "Close"},
	}
	rejected := [][]string{
		{"Read"},
		{"Open", "Sync", "Sync", "Close"},
		{"Open", "Close", "Read"},
	}
	for _, w := range accepted {
		if !p.Accepts(w) {
			t.Errorf("Accepts(%v) = false, want true", w)
		}
	}
	for _, w := range rejected {
		if p.ValidPrefix(w) && p.Accepts(w) {
			t.Errorf("Accepts(%v) = true, want false", w)
		}
	}
}

// genWord draws a random word from the language of e (one full
// traversal), appending to w.
func genWord(rng *rand.Rand, e Expr, w []string) []string {
	switch e := e.(type) {
	case *Name:
		return append(w, e.Sym)
	case *Sequence:
		for _, p := range e.Parts {
			w = genWord(rng, p, w)
		}
		return w
	case *Selection:
		return genWord(rng, e.Alts[rng.Intn(len(e.Alts))], w)
	case *Repetition:
		for n := rng.Intn(3); n > 0; n-- {
			w = genWord(rng, e.Body, w)
		}
		return w
	case *Option:
		if rng.Intn(2) == 0 {
			return genWord(rng, e.Body, w)
		}
		return w
	default:
		return w
	}
}

// genExpr builds a random AST of bounded depth over a small alphabet.
func genExpr(rng *rand.Rand, depth int) Expr {
	names := []string{"a", "b", "c", "d"}
	if depth <= 0 {
		return &Name{Sym: names[rng.Intn(len(names))]}
	}
	switch rng.Intn(5) {
	case 0:
		return &Name{Sym: names[rng.Intn(len(names))]}
	case 1:
		n := rng.Intn(2) + 2
		parts := make([]Expr, n)
		for i := range parts {
			parts[i] = genExpr(rng, depth-1)
		}
		return &Sequence{Parts: parts}
	case 2:
		n := rng.Intn(2) + 2
		alts := make([]Expr, n)
		for i := range alts {
			alts[i] = genExpr(rng, depth-1)
		}
		return &Selection{Alts: alts}
	case 3:
		return &Repetition{Body: genExpr(rng, depth-1)}
	default:
		return &Option{Body: genExpr(rng, depth-1)}
	}
}

// TestQuickGeneratedWordsAccepted: any concatenation of full traversals
// sampled from the expression itself must be accepted by the compiled
// DFA, and every prefix of it must be a valid prefix.
func TestQuickGeneratedWordsAccepted(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ast := genExpr(rng, 3)
		p, err := Parse("path " + ast.String() + " end")
		if err != nil {
			return false
		}
		var word []string
		for cycles := rng.Intn(3) + 1; cycles > 0; cycles-- {
			word = genWord(rng, ast, word)
		}
		if !p.Accepts(word) {
			t.Logf("expr %q rejected generated word %v", ast.String(), word)
			return false
		}
		for i := range word {
			if !p.ValidPrefix(word[:i]) {
				t.Logf("expr %q rejected prefix %v", ast.String(), word[:i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMatcherAgreesWithAccepts: stepping a matcher through a word
// symbol by symbol agrees with the whole-word primitives.
func TestQuickMatcherAgreesWithAccepts(t *testing.T) {
	t.Parallel()
	f := func(seed int64, raw []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ast := genExpr(rng, 3)
		p, err := Parse("path " + ast.String() + " end")
		if err != nil {
			return false
		}
		names := []string{"a", "b", "c", "d"}
		m := p.NewMatcher()
		var word []string
		for _, r := range raw {
			sym := names[int(r)%len(names)]
			err := m.Step(sym)
			if !p.Mentions(sym) {
				// Unmentioned procedures are outside the declared partial
				// order: the matcher must accept them and stay put.
				if err != nil {
					return false
				}
				continue
			}
			wordIfTaken := append(append([]string(nil), word...), sym)
			valid := p.ValidPrefix(wordIfTaken)
			if (err == nil) != valid {
				t.Logf("expr %q word %v sym %q: matcher=%v validPrefix=%v",
					ast.String(), word, sym, err == nil, valid)
				return false
			}
			if err == nil {
				word = wordIfTaken
			}
			if m.AtCycleBoundary() != p.Accepts(word) {
				t.Logf("expr %q word %v: boundary disagreement", ast.String(), word)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMustParsePanicsOnBadInput(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on invalid input")
		}
	}()
	MustParse("path ; end")
}
