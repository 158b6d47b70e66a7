package scenario

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/fed"
	"repro/internal/pricing"
)

// valid returns a scenario exercising every block, for mutation tests.
func valid() *Scenario {
	return &Scenario{
		Name:     "kitchen-sink",
		Seasonal: &Seasonal{StartMonth: 6, VacationProb: 0.05, MeterResolutionKW: 0.05},
		DER: []DERSpec{
			{Battery: &energy.BatterySpec{CapacityKWh: 10, MaxChargeKW: 3, MaxDischargeKW: 3}},
			{Homes: []int{0}, EV: &energy.EVSpec{
				CapacityKWh: 40, RateKW: []float64{3, 6}, ArrivalMin: 18 * 60, DepartMin: 23 * 60,
				InitSoC: 0.3, TargetSoC: 0.8,
			}},
			{PV: &energy.PVSpec{PeakKW: 4}},
		},
		Events: []DREvent{
			{Day: 1, StartMin: 17 * 60, EndMin: 20 * 60, PriceFactor: 3, EVCurtail: 0.5},
			{Day: 1, StartMin: 2 * 60, EndMin: 4 * 60, PriceFactor: 0.5},
		},
		Adversary: &fed.AdversaryPlan{
			Seed:      7,
			Attackers: []fed.Attacker{{Agent: 1, Attack: fed.AttackSignFlip}},
			Defense:   fed.Defense{NormRatio: 4, CosineGate: true},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := valid().Validate(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := (*Scenario)(nil).Validate(2, 3); err != nil {
		t.Fatal("nil scenario should validate")
	}
}

// TestValidateFieldErrors mutates the valid scenario one field at a time
// and checks each failure is a *FieldError naming the right path.
func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		field  string
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }, "Name"},
		{"bad month", func(s *Scenario) { s.Seasonal.StartMonth = 13 }, "Seasonal"},
		{"bad vacation prob", func(s *Scenario) { s.Seasonal.VacationProb = 2 }, "Seasonal"},
		{"two families", func(s *Scenario) { s.DER[0].PV = &energy.PVSpec{PeakKW: 1} }, "DER[0]"},
		{"no family", func(s *Scenario) { s.DER[2].PV = nil }, "DER[2]"},
		{"home out of range", func(s *Scenario) { s.DER[1].Homes = []int{5} }, "DER[1].Homes"},
		{"duplicate home", func(s *Scenario) { s.DER[1].Homes = []int{0, 0} }, "DER[1].Homes"},
		{"bad battery", func(s *Scenario) { s.DER[0].Battery.CapacityKWh = -1 }, "DER[0].Battery"},
		{"bad EV rate", func(s *Scenario) { s.DER[1].EV.RateKW = nil }, "DER[1].EV"},
		{"bad PV", func(s *Scenario) { s.DER[2].PV.PeakKW = 0 }, "DER[2].PV"},
		{"event day out of range", func(s *Scenario) { s.Events[0].Day = 9 }, "Events[0]"},
		{"event inverted window", func(s *Scenario) { s.Events[1].EndMin = s.Events[1].StartMin }, "Events[1]"},
		{"bad curtail", func(s *Scenario) { s.Events[0].EVCurtail = 1.5 }, "Events[0].EVCurtail"},
		{"overlapping events", func(s *Scenario) { s.Events[1].StartMin, s.Events[1].EndMin = 18*60, 21*60 }, "Events[1]"},
		{"adversary agent range", func(s *Scenario) { s.Adversary.Attackers[0].Agent = 7 }, "Adversary"},
		{"adversary defense", func(s *Scenario) { s.Adversary.Defense.NormRatio = 0.5 }, "Adversary"},
	}
	for _, tc := range cases {
		s := valid()
		tc.mutate(s)
		err := s.Validate(2, 3)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var fe *FieldError
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a FieldError", tc.name, err)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: error names field %q, want %q (%v)", tc.name, fe.Field, tc.field, err)
		}
	}
}

func TestParseRejectsHostileDocuments(t *testing.T) {
	bad := []string{
		`{"Name": "x", "Turbo": true}`,                      // unknown field
		`{"Name": "x"} {"Name": "y"}`,                       // trailing document
		`{"Name": "x", "Events": [{"Day": []}]}`,            // wrong type
		`{"Name": "x", "Events": [{"PriceFactor": 1e999}]}`, // overflow
		`{"Name":`, // truncated
		`[1,2,3]`,  // wrong top-level shape
	}
	for i, doc := range bad {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("hostile document %d accepted: %s", i, doc)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	doc := `{
		"Name": "dr-day",
		"Events": [{"Day": 0, "StartMin": 1020, "EndMin": 1200, "PriceFactor": 3, "EVCurtail": 0.5}]
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(4, 1); err != nil {
		t.Fatal(err)
	}
	if s.Name != "dr-day" || len(s.Events) != 1 {
		t.Fatalf("loaded %+v", s)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte(`{"Nope": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("load error should name the file: %v", err)
	}
}

func TestDerivedViews(t *testing.T) {
	s := valid()
	o := s.Overlay(pricing.FixedRate{})
	if o == nil || len(o.Windows) != 2 {
		t.Fatalf("overlay %+v", o)
	}
	base := pricing.FixedRate{}.PricePerKWh(6, 18*60)
	if got := o.PriceAt(1, 6, 18*60); got != base*3 {
		t.Fatalf("overlay spike price %g, want %g", got, base*3)
	}
	if got := s.CurtailAt(1, 18*60); got != 0.5 {
		t.Fatalf("CurtailAt spike = %g, want 0.5", got)
	}
	if got := s.CurtailAt(0, 18*60); got != 0 {
		t.Fatalf("CurtailAt other day = %g, want 0", got)
	}
	if !s.HasDER() || (&Scenario{Name: "x"}).HasDER() {
		t.Fatal("HasDER misclassifies")
	}
	if (*Scenario)(nil).Overlay(pricing.FixedRate{}) != nil {
		t.Fatal("nil scenario overlay should be nil")
	}
	if (*Scenario)(nil).CurtailAt(0, 0) != 0 || (*Scenario)(nil).HasDER() {
		t.Fatal("nil scenario views should be inert")
	}
	if !(*Scenario)(nil).AdversaryPlan().Empty() {
		t.Fatal("nil scenario adversary plan should be empty")
	}
	if (&Scenario{Name: "x"}).Overlay(pricing.FixedRate{}) != nil {
		t.Fatal("event-free scenario overlay should be nil")
	}
	// Spec coverage helpers.
	if k := s.DER[0].Kind(); k != "battery" {
		t.Fatalf("Kind = %q", k)
	}
	if !s.DER[0].FleetWide() || s.DER[1].FleetWide() {
		t.Fatal("FleetWide misclassifies")
	}
	if !s.DER[1].AppliesTo(0) || s.DER[1].AppliesTo(1) {
		t.Fatal("AppliesTo misclassifies")
	}
}
