package verify

import (
	"testing"

	"pgasgraph/internal/serve"
)

// TestRacyOpsDerivedFromRegistry pins the single-source-of-truth
// contract: for every battery check named after a serve-registry kernel,
// the check's RacyOps flag equals the registry's declaration. A new
// kernel declares raciness once, on its registry row, and the harness
// follows.
func TestRacyOpsDerivedFromRegistry(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range serve.Kernels() {
		registered[name] = true
	}
	covered := 0
	for _, c := range Checks() {
		if !registered[c.Name] {
			continue
		}
		covered++
		if c.RacyOps != serve.RacyOps(c.Name) {
			t.Errorf("check %s: RacyOps = %v, registry declares %v", c.Name, c.RacyOps, serve.RacyOps(c.Name))
		}
	}
	if covered < 8 {
		t.Errorf("only %d battery checks share a registry kernel name; expected the CC family, naive and merge-cgm", covered)
	}
}

// TestChaosRotationSkipsRacy runs a short real soak and asserts the
// rotation never selected a RacyOps check — the bit-for-bit replay
// guarantee of the chaos digest depends on it.
func TestChaosRotationSkipsRacy(t *testing.T) {
	racy := map[string]bool{}
	any := false
	for _, c := range Checks() {
		racy[c.Name] = c.RacyOps
		any = any || c.RacyOps
	}
	if !any {
		t.Fatal("battery declares no RacyOps checks; the exclusion is untestable")
	}
	rep := ChaosRun(ChaosRunConfig{Seed: 0x5afe, Trials: 2 * len(Checks()), MaxN: 60})
	if len(rep.Trials) == 0 {
		t.Fatal("soak produced no trials")
	}
	for _, res := range rep.Trials {
		if racy[res.Check] {
			t.Errorf("round %d: chaos rotation selected RacyOps check %s", res.Round, res.Check)
		}
	}
}
