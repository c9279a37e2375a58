package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// FuzzParse: the pattern DSL is what clients send both servers, so Parse
// must refuse anything malformed without panicking, and whatever it
// accepts must print as DSL it accepts again — String reaching a fixed
// point after one round, which is what a coordinator relies on when it
// forwards q.String() to its workers.
func FuzzParse(f *testing.F) {
	for _, m := range fixture.Mix {
		f.Add(m.DSL)
	}
	// The benchmark's standing watches (benchmark/workloads.go's watchDSL).
	for _, dsl := range []string{
		"qgp\nn xo person *\nn z person\ne xo z follow >=3\n",
		"qgp\nn xo person *\nn z person\ne xo z follow =0\n",
		"qgp\nn xo person *\nn z person\ne xo z follow <=5\n",
		"qgp\nn xo person *\nn z person\ne xo z follow >=10\n",
	} {
		f.Add(dsl)
	}
	f.Add("qgp\n# quoted names and labels\nn \"x o\" \"Redmi 2A\" *\nn z \"a\\\"b\"\ne \"x o\" z \"fol low\" >2\ne z \"x o\" like >=12.5%\n")
	f.Fuzz(func(t *testing.T, dsl string) {
		p, err := core.Parse(dsl)
		if err != nil {
			return
		}
		s := p.String()
		again, err := core.Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", dsl, s, err)
		}
		if s2 := again.String(); s2 != s {
			t.Fatalf("String is not a fixed point:\n%q\n%q", s, s2)
		}
	})
}
