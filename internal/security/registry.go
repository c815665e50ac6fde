package security

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/topo"
)

// Misbehaviour kinds providers can report.
type ReportKind uint8

// Report kinds.
const (
	// KindLedgerFraud: the accused's traffic claims failed cross-
	// verification (economics.CrossVerify discrepancies).
	KindLedgerFraud ReportKind = iota + 1
	// KindTrafficDrop: traffic handed to the accused for relay never
	// arrived.
	KindTrafficDrop
	// KindInterception: AEAD failures concentrated on paths through the
	// accused — evidence of tampering or a non-OpenSpace intercept.
	KindInterception
)

// String implements fmt.Stringer.
func (k ReportKind) String() string {
	switch k {
	case KindLedgerFraud:
		return "ledger-fraud"
	case KindTrafficDrop:
		return "traffic-drop"
	case KindInterception:
		return "interception"
	default:
		return fmt.Sprintf("ReportKind(%d)", uint8(k))
	}
}

// Report is one provider's signed accusation against another.
type Report struct {
	Reporter string
	Accused  string
	Kind     ReportKind
	Evidence string  // human-auditable description
	AtS      float64 // report time
	Sig      []byte  // Ed25519 over signedBytes
}

func (r *Report) signedBytes() []byte {
	b := make([]byte, 0, 64)
	appendField := func(s string) {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	appendField(r.Reporter)
	appendField(r.Accused)
	b = append(b, byte(r.Kind))
	appendField(r.Evidence)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.AtS))
	return b
}

// Sign attaches the reporter's signature.
func (r *Report) Sign(priv ed25519.PrivateKey) {
	r.Sig = ed25519.Sign(priv, r.signedBytes())
}

// Registry errors.
var (
	ErrUnknownReporter = errors.New("security: reporter not a trusted member")
	ErrBadReportSig    = errors.New("security: report signature invalid")
	ErrSelfReport      = errors.New("security: providers cannot accuse themselves")
)

// Registry collects verified reports and quarantines providers accused by a
// quorum of distinct peers — §5(6)'s "quickly identify and cut off bad
// actors". Safe for concurrent use.
type Registry struct {
	quorum int

	mu      sync.RWMutex
	keys    map[string]ed25519.PublicKey
	accused map[string]map[string]Report // accused → reporter → report
}

// NewRegistry creates a registry requiring quorum distinct accusers before
// quarantine.
func NewRegistry(quorum int) (*Registry, error) {
	if quorum <= 0 {
		return nil, errors.New("security: quorum must be positive")
	}
	return &Registry{
		quorum:  quorum,
		keys:    make(map[string]ed25519.PublicKey),
		accused: make(map[string]map[string]Report),
	}, nil
}

// AddMember registers a provider's report-verification key (the same
// Ed25519 key providers use for certificates).
func (g *Registry) AddMember(provider string, key ed25519.PublicKey) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.keys[provider] = key
}

// Submit verifies and records a report. Duplicate reports by the same
// reporter against the same accused overwrite (one vote per member).
func (g *Registry) Submit(r Report) error {
	if r.Reporter == r.Accused {
		return ErrSelfReport
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	key, ok := g.keys[r.Reporter]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownReporter, r.Reporter)
	}
	if !ed25519.Verify(key, r.signedBytes(), r.Sig) {
		return ErrBadReportSig
	}
	m := g.accused[r.Accused]
	if m == nil {
		m = make(map[string]Report)
		g.accused[r.Accused] = m
	}
	m[r.Reporter] = r
	return nil
}

// Accusers returns how many distinct members currently accuse the provider.
func (g *Registry) Accusers(provider string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.accused[provider])
}

// Quarantined reports whether the provider has met the quorum.
func (g *Registry) Quarantined(provider string) bool {
	return g.Accusers(provider) >= g.quorum
}

// QuarantinedProviders returns all quarantined providers, sorted.
func (g *Registry) QuarantinedProviders() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var out []string
	for p, m := range g.accused {
		if len(m) >= g.quorum {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ExcludeQuarantined wraps a routing cost function so that edges touching a
// quarantined provider's infrastructure become unusable — the "cut off"
// half of §5(6). Paths already in flight are unaffected; new computations
// route around the bad actor.
func ExcludeQuarantined(base routing.CostFunc, g *Registry) routing.CostFunc {
	return func(e topo.Edge, s *topo.Snapshot) (float64, bool) {
		if g.Quarantined(s.NodeAt(e.To).Provider) || g.Quarantined(s.NodeAt(e.From).Provider) {
			return 0, false
		}
		return base(e, s)
	}
}
