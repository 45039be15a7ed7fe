package auction

import "testing"

func TestRuleSpecRoundTrip(t *testing.T) {
	add, err := NewAdditive(0.4, 0.3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	leo, err := NewLeontief(0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := NewCobbDouglas(25, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := NewNormalized(leo, []float64{1000, 5}, []float64{5000, 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []ScoringRule{add, leo, cd, norm} {
		spec, err := SpecForRule(rule)
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		rebuilt, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		if rebuilt.Name() != rule.Name() || rebuilt.Dims() != rule.Dims() {
			t.Errorf("rebuilt %s/%d, want %s/%d", rebuilt.Name(), rebuilt.Dims(), rule.Name(), rule.Dims())
		}
		q := make([]float64, rule.Dims())
		for i := range q {
			q[i] = 0.3 + 0.2*float64(i)
		}
		if a, b := rule.Value(q), rebuilt.Value(q); a != b {
			t.Errorf("%s: value %v != rebuilt %v", rule.Name(), a, b)
		}
	}
	if _, err := (RuleSpec{Kind: "nope"}).Build(); err == nil {
		t.Error("unknown kind: want error")
	}
	if _, err := SpecForRule(fakeRule{}); err == nil {
		t.Error("unsupported rule: want error")
	}
}

type fakeRule struct{}

func (fakeRule) Value([]float64) float64 { return 0 }
func (fakeRule) Dims() int               { return 1 }
func (fakeRule) Name() string            { return "fake" }
