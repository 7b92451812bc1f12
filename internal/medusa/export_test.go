package medusa

import "testing"

// Hooks for the external medusa_test package, which builds real zoo
// artifacts through the engine (package medusa cannot import engine).

// DeltaChecker runs checkDeltaPair through one reused encoder.
type DeltaChecker struct{ enc deltaEncoder }

// Check is checkDeltaPair.
func (c *DeltaChecker) Check(t testing.TB, what string, src, tgt []byte) {
	t.Helper()
	checkDeltaPair(t, &c.enc, what, src, tgt)
}

// CheckDeltaOracle checks every (source, target) pair EncodeDelta
// encodes for a against tmpl — the six template sections and the graph
// chain — against the oracle encoder, through one reused encoder as
// EncodeDelta does.
func CheckDeltaOracle(t testing.TB, a *Artifact, tmpl *Template) {
	t.Helper()
	body, ends, graphEnds := a.bodySections()
	var enc deltaEncoder
	start := 0
	for i, name := range bodySectionNames {
		if name == "graphs" {
			src := tmpl.sections[2]
			for gi := range graphEnds {
				gb := graphBody(body, start, graphEnds, gi)
				checkDeltaPair(t, &enc, a.ModelName+" graph chain", src, gb)
				src = gb
			}
		} else {
			checkDeltaPair(t, &enc, a.ModelName+" "+name, tmpl.sections[i], body[start:ends[i]])
		}
		start = ends[i]
	}
}
