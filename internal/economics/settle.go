package economics

import (
	"fmt"
	"sort"
)

// RateCard holds bilateral carriage prices in USD per GB: what each carrier
// charges each customer. The paper leaves "the precise monetary amounts that
// ISPs charge to carry said traffic … to agreements between individual
// ISPs"; a rate card is one such agreement set.
type RateCard struct {
	// PerGB maps (carrier, customer) to the agreed price. Missing entries
	// fall back to Default.
	PerGB   map[Flow]float64
	Default float64
}

// Rate returns the applicable price for a flow.
func (r RateCard) Rate(f Flow) float64 {
	if p, ok := r.PerGB[f]; ok {
		return p
	}
	return r.Default
}

// Invoice is one provider-to-provider charge.
type Invoice struct {
	Flow      Flow
	Bytes     int64
	AmountUSD float64
}

// Settle prices every flow in the ledger, returning invoices (carrier bills
// customer) in deterministic order.
func Settle(l *Ledger, rates RateCard) []Invoice {
	var out []Invoice
	for _, f := range l.Flows() {
		n := l.Carried(f.Carrier, f.Customer)
		if n == 0 {
			continue
		}
		out = append(out, Invoice{
			Flow:      f,
			Bytes:     n,
			AmountUSD: float64(n) / 1e9 * rates.Rate(f),
		})
	}
	return out
}

// NetBalances folds invoices into per-provider net positions: positive
// means the provider is owed money.
func NetBalances(invoices []Invoice) map[string]float64 {
	bal := map[string]float64{}
	for _, inv := range invoices {
		bal[inv.Flow.Carrier] += inv.AmountUSD
		bal[inv.Flow.Customer] -= inv.AmountUSD
	}
	return bal
}

// PeeringCandidate is a provider pair whose mutual carriage is symmetric
// enough that settlement-free peering would save both sides money — the
// paper: "if two providers realize they are routing similar amounts of
// traffic through each other's systems, and that their routing paths are
// heavily interdependent, they may decide to peer".
type PeeringCandidate struct {
	A, B     string
	AtoB     int64   // bytes A carried for B
	BtoA     int64   // bytes B carried for A
	Symmetry float64 // min/max of the two volumes, in (0,1]
}

// PeeringCandidates scans a ledger for pairs with mutual volume of at least
// minBytes in each direction and symmetry ≥ minSymmetry. Results are
// ordered by combined volume, largest first.
func PeeringCandidates(l *Ledger, minBytes int64, minSymmetry float64) []PeeringCandidate {
	var out []PeeringCandidate
	seen := map[[2]string]bool{}
	for _, f := range l.Flows() {
		a, b := f.Carrier, f.Customer
		if a == b {
			continue
		}
		key := [2]string{min(a, b), max(a, b)}
		if seen[key] {
			continue
		}
		seen[key] = true
		ab := l.Carried(key[0], key[1])
		ba := l.Carried(key[1], key[0])
		if ab < minBytes || ba < minBytes {
			continue
		}
		lo, hi := ab, ba
		if lo > hi {
			lo, hi = hi, lo
		}
		sym := float64(lo) / float64(hi)
		if sym < minSymmetry {
			continue
		}
		out = append(out, PeeringCandidate{A: key[0], B: key[1], AtoB: ab, BtoA: ba, Symmetry: sym})
	}
	sort.Slice(out, func(i, j int) bool {
		vi := out[i].AtoB + out[i].BtoA
		vj := out[j].AtoB + out[j].BtoA
		if vi != vj {
			return vi > vj
		}
		return out[i].A < out[j].A
	})
	return out
}

// String implements fmt.Stringer.
func (p PeeringCandidate) String() string {
	return fmt.Sprintf("peer{%s↔%s sym=%.2f}", p.A, p.B, p.Symmetry)
}
