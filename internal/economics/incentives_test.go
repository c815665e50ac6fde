package economics

import (
	"strings"
	"testing"
)

func TestIncentiveSettlementChannel(t *testing.T) {
	l := NewLedger("big")
	// big carried 10 GB for small; small carried 2 GB for big.
	l.RecordPath("small", []string{"big"}, 10e9)
	l.RecordPath("big", []string{"small"}, 2e9)
	rates := RateCard{Default: 0.50}

	r, err := Incentive(l, rates, "big", 0.9, 0.95, CoverageEconomics{})
	if err != nil {
		t.Fatal(err)
	}
	if !close2(r.CarriageRevenueUSD, 5.0) {
		t.Errorf("revenue = %v, want 5.00", r.CarriageRevenueUSD)
	}
	if !close2(r.CarriageCostUSD, 1.0) {
		t.Errorf("cost = %v, want 1.00", r.CarriageCostUSD)
	}
	// Contribution: 10 of 12 GB was work for others.
	if !close2(r.ContributionIndex, 10.0/12.0) {
		t.Errorf("contribution = %v", r.ContributionIndex)
	}
	// No users → no dividend; net is pure settlement.
	if !close2(r.NetBenefitUSD, 4.0) {
		t.Errorf("net = %v, want 4.00", r.NetBenefitUSD)
	}
	if !strings.Contains(r.String(), "big") {
		t.Error("report should render")
	}
}

func TestIncentiveCoverageDividendDominates(t *testing.T) {
	// The §5(4) case: a large provider loses a little on settlement but its
	// subscribers gain hours of availability — membership still pays.
	l := NewLedger("big")
	l.RecordPath("big", []string{"small"}, 10e9) // big pays small $2 at 0.20/GB
	ce := CoverageEconomics{Users: 10000, RevenuePerUserHour: 0.01, Hours: 24}
	r, err := Incentive(l, RateCard{Default: 0.20}, "big", 0.80, 0.95, ce)
	if err != nil {
		t.Fatal(err)
	}
	if r.CarriageRevenueUSD != 0 || !close2(r.CarriageCostUSD, 2.0) {
		t.Errorf("settlement wrong: %+v", r)
	}
	// Dividend: 0.15 × 10000 × 0.01 × 24 = 360.
	if !close2(r.CoverageDividendUSD, 360) {
		t.Errorf("dividend = %v, want 360", r.CoverageDividendUSD)
	}
	if r.NetBenefitUSD <= 0 {
		t.Errorf("membership should pay: net %v", r.NetBenefitUSD)
	}
}

func TestIncentiveValidation(t *testing.T) {
	l := NewLedger("p")
	if _, err := Incentive(nil, RateCard{}, "p", 0, 0, CoverageEconomics{}); err == nil {
		t.Error("nil ledger should fail")
	}
	if _, err := Incentive(l, RateCard{}, "p", -0.1, 0, CoverageEconomics{}); err == nil {
		t.Error("bad solo availability should fail")
	}
	if _, err := Incentive(l, RateCard{}, "p", 0, 1.1, CoverageEconomics{}); err == nil {
		t.Error("bad federated availability should fail")
	}
	if _, err := Incentive(l, RateCard{}, "p", 0, 0, CoverageEconomics{Users: -1}); err == nil {
		t.Error("negative users should fail")
	}
	// Federation "losing" coverage clamps to zero dividend, not negative.
	r, err := Incentive(l, RateCard{}, "p", 0.9, 0.5, CoverageEconomics{Users: 10, RevenuePerUserHour: 1, Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.CoverageDividendUSD != 0 {
		t.Errorf("negative gain should clamp: %v", r.CoverageDividendUSD)
	}
}
