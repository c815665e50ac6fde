package economics

import (
	"errors"
	"fmt"
)

// IncentiveReport summarises what federation membership is worth to one
// provider — the paper's §5(4) question: "How can larger satellite provider
// companies be incentivized to join OpenSpace and collaborate with smaller
// providers?" Membership pays through two channels: carriage revenue (being
// paid to relay others' traffic) and the coverage dividend (serving your own
// subscribers during hours your fleet alone could not).
type IncentiveReport struct {
	Provider string
	// Settlement channel.
	CarriageRevenueUSD float64 // earned carrying others' traffic
	CarriageCostUSD    float64 // paid for others carrying ours
	// ContributionIndex is the fraction of the provider's total ledger
	// volume that is work done for others — high for infrastructure-heavy
	// members, low for customer-heavy ones.
	ContributionIndex float64
	// Coverage channel.
	SoloAvailability      float64 // fraction of time own users served alone
	FederatedAvailability float64
	CoverageDividendUSD   float64 // extra served user-hours, monetised
	// NetBenefitUSD is the bottom line: join if positive.
	NetBenefitUSD float64
}

// String implements fmt.Stringer.
func (r IncentiveReport) String() string {
	return fmt.Sprintf("incentive{%s: carriage %+0.2f, dividend %0.2f, net %+0.2f USD}",
		r.Provider, r.CarriageRevenueUSD-r.CarriageCostUSD, r.CoverageDividendUSD, r.NetBenefitUSD)
}

// CoverageEconomics converts availability gains into money.
type CoverageEconomics struct {
	Users              int     // the provider's subscriber count
	RevenuePerUserHour float64 // what a served user-hour is worth
	Hours              float64 // evaluation horizon
}

// Validate reports whether the parameters are usable.
func (c CoverageEconomics) Validate() error {
	if c.Users < 0 || c.RevenuePerUserHour < 0 || c.Hours < 0 {
		return errors.New("economics: coverage economics must be non-negative")
	}
	return nil
}

// Incentive computes the full membership case for one provider: settlement
// from its ledger at the given rates, plus the coverage dividend from
// solo vs federated availability (both in [0,1]).
func Incentive(l *Ledger, rates RateCard, provider string, solo, federated float64, ce CoverageEconomics) (IncentiveReport, error) {
	if l == nil {
		return IncentiveReport{}, errors.New("economics: ledger required")
	}
	if solo < 0 || solo > 1 || federated < 0 || federated > 1 {
		return IncentiveReport{}, fmt.Errorf("economics: availabilities must be in [0,1]")
	}
	if err := ce.Validate(); err != nil {
		return IncentiveReport{}, err
	}
	r := IncentiveReport{
		Provider:              provider,
		SoloAvailability:      solo,
		FederatedAvailability: federated,
	}
	var carriedForOthers, carriedByOthers int64
	for _, f := range l.Flows() {
		n := l.Carried(f.Carrier, f.Customer)
		amount := float64(n) / 1e9 * rates.Rate(f)
		if f.Carrier == provider {
			r.CarriageRevenueUSD += amount
			carriedForOthers += n
		}
		if f.Customer == provider {
			r.CarriageCostUSD += amount
			carriedByOthers += n
		}
	}
	if total := carriedForOthers + carriedByOthers; total > 0 {
		r.ContributionIndex = float64(carriedForOthers) / float64(total)
	}
	gain := federated - solo
	if gain < 0 {
		gain = 0 // federation can only add coverage
	}
	r.CoverageDividendUSD = gain * float64(ce.Users) * ce.RevenuePerUserHour * ce.Hours
	r.NetBenefitUSD = r.CarriageRevenueUSD - r.CarriageCostUSD + r.CoverageDividendUSD
	return r, nil
}
