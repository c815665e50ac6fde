// Command openspace-sim runs an end-to-end OpenSpace federation
// simulation: it builds the Iridium reference constellation split across N
// providers, places users at population-weighted world cities, associates
// and authenticates them, drives random transfers through the network for
// the configured duration, and reports latency, accounting and settlement.
//
// Usage:
//
//	openspace-sim -providers 3 -users 12 -transfers 200 -duration 600
//	openspace-sim -aggregate -users 1000000 -duration 600
//	openspace-sim -campaign -quick -csv out.csv -checkpoint run.ckpt
//	openspace-sim -campaign -cell "iridium~i4~iot~dtn"
//	openspace-sim -campaign -quick -cpuprofile cpu.out -memprofile mem.out -trace trace.out
//
// The profiles are standard pprof and runtime/trace files; they never
// change stdout or a CSV byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"github.com/openspace-project/openspace/internal/campaign"
	"github.com/openspace-project/openspace/internal/core"
	"github.com/openspace-project/openspace/internal/economics"
	"github.com/openspace-project/openspace/internal/faults"
	"github.com/openspace-project/openspace/internal/fluid"
	"github.com/openspace-project/openspace/internal/orbit"
	"github.com/openspace-project/openspace/internal/prof"
	"github.com/openspace-project/openspace/internal/routing"
	"github.com/openspace-project/openspace/internal/sim"
	"github.com/openspace-project/openspace/internal/topo"
	"github.com/openspace-project/openspace/internal/traffic"
)

func main() {
	providers := flag.Int("providers", 3, "number of federated providers")
	users := flag.Int("users", 12, "total users (spread across providers)")
	transfers := flag.Int("transfers", 200, "number of transfers to attempt")
	bytesPer := flag.Int64("bytes", 100_000_000, "bytes per transfer")
	duration := flag.Float64("duration", 600, "simulated seconds")
	seed := flag.Int64("seed", 42, "random seed")
	workers := flag.Int("workers", 0, "parallel topology-snapshot workers (0 = one per CPU, 1 = serial); results are identical at any setting")
	scenario := flag.Bool("scenario", false, "drive the workload through the discrete-event engine (Poisson arrivals, automatic handovers) instead of fixed transfer counts")
	aggregate := flag.Bool("aggregate", false, "run in fluid-aggregation mode: -users is an effective population (millions are fine) bucketed into city-pair×class aggregates instead of per-user terminals")
	capacity := flag.Bool("capacity", false, "print a traffic-engineering report (demand matrix, max-min fair allocation, bottleneck) instead of running transfers")
	faultsMode := flag.Bool("faults", false, "inject deterministic faults (satellite failures, ISL flaps, weather, storms) and report per-flow availability, reroutes and scenario robustness")
	intensity := flag.Float64("intensity", 1, "fault-rate multiplier for -faults (0 disables injection)")
	campaignMode := flag.Bool("campaign", false, "run the E17 disrupted-communications campaign matrix (supervised cells, retry, failure manifest)")
	quick := flag.Bool("quick", false, "with -campaign: the 8-cell quick matrix instead of the full 54-cell one")
	cellID := flag.String("cell", "", "with -campaign: run this single cell by ID and print its canonical metrics row")
	checkpoint := flag.String("checkpoint", "", "with -campaign: stream per-cell records to this file as cells complete")
	resume := flag.Bool("resume", false, "with -campaign: load -checkpoint, skip recorded cells, and replay their rows verbatim")
	stopAfter := flag.Int("stop-after", 0, "with -campaign: stop after N pending cells, leaving the rest for -resume (interruption stand-in)")
	keepGoing := flag.Bool("keep-going", false, "with -campaign: exit 0 even when cells fail (failures still land in the manifest)")
	injectPanic := flag.String("inject-panic", "", "with -campaign: cell ID whose run panics — a test hook for supervisor containment")
	csvPath := flag.String("csv", "", "with -campaign: write the results CSV here")
	manifestPath := flag.String("manifest", "", "with -campaign: write the failure manifest here")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	err := profiles.Run(func() error {
		switch {
		case *campaignMode || *cellID != "":
			return runCampaign(campaignOptions{
				quick: *quick, workers: *workers, cellID: *cellID,
				checkpoint: *checkpoint, resume: *resume, stopAfter: *stopAfter,
				keepGoing: *keepGoing, injectPanic: *injectPanic,
				csvPath: *csvPath, manifestPath: *manifestPath,
			})
		case *aggregate:
			var fcfg faults.Config
			if *faultsMode {
				if err := faults.CheckIntensity(*intensity); err != nil {
					return err
				}
				fcfg = faults.Default().Scale(*intensity)
				fcfg.Seed = *seed
			}
			return runAggregate(*providers, *users, *duration, *seed, *workers, fcfg)
		case *faultsMode:
			return runFaults(*providers, *users, *duration, *intensity, *seed, *workers)
		case *capacity:
			return runCapacity(*providers, *users, *seed, *workers)
		case *scenario:
			return runScenario(*providers, *users, *duration, *seed, *workers)
		}
		return run(*providers, *users, *transfers, *bytesPer, *duration, *seed, *workers)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "openspace-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(providers, users, transfers int, bytesPer int64, duration float64, seed int64, workers int) error {
	if providers <= 0 || users <= 0 || transfers <= 0 {
		return fmt.Errorf("providers, users and transfers must be positive")
	}
	pcs, err := core.IridiumFederation(providers)
	if err != nil {
		return err
	}
	var stationIDs []string
	satellites := 0
	for p := range pcs {
		pcs[p].CarriagePerGB = 0.15 + 0.05*float64(p%3)
		stationIDs = append(stationIDs, pcs[p].GroundStations[0].ID)
		satellites += len(pcs[p].Satellites)
	}
	net, err := core.NewNetwork(core.NetworkConfig{
		Providers: pcs, Seed: seed, Topo: topo.Config{Workers: workers},
	})
	if err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	positions := sim.CityUsers(users, 30, rng)
	var userIDs []string
	for i, pos := range positions {
		id := fmt.Sprintf("user-%d", i)
		if _, err := net.AddUser(id, fmt.Sprintf("prov-%d", i%providers), pos); err != nil {
			return err
		}
		userIDs = append(userIDs, id)
	}
	if err := net.BuildTopology(0, duration, 60); err != nil {
		return err
	}
	fmt.Printf("federation: %d providers, %d satellites, %d users, %d stations\n",
		providers, satellites, users, len(stationIDs))

	associated := 0
	for _, id := range userIDs {
		if err := net.Associate(id, 0); err == nil {
			associated++
		}
	}
	fmt.Printf("associated and authenticated: %d/%d users\n", associated, users)

	var latency sim.Histogram
	var carriage, gateway float64
	delivered := 0
	for i := 0; i < transfers; i++ {
		uid := userIDs[rng.Intn(len(userIDs))]
		gs := stationIDs[rng.Intn(len(stationIDs))]
		t := rng.Float64() * duration
		d, err := net.Send(uid, gs, bytesPer, t)
		if err != nil {
			continue
		}
		delivered++
		latency.Add(d.LatencyS * 1000)
		carriage += d.CarriageUSD
		gateway += d.GatewayFeeUSD
	}
	fmt.Printf("transfers delivered: %d/%d\n", delivered, transfers)
	fmt.Printf("latency ms: mean %.1f | p50 %.1f | p95 %.1f | max %.1f\n",
		latency.Mean(), latency.Quantile(0.5), latency.Quantile(0.95), latency.Max())
	fmt.Printf("fees: carriage $%.2f | gateway $%.2f\n", carriage, gateway)

	// Cross-verify all ledgers, then settle provider 0's books.
	ids := net.Providers()
	disc := 0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			disc += len(economics.CrossVerify(net.Provider(ids[i]).Ledger, net.Provider(ids[j]).Ledger))
		}
	}
	fmt.Printf("ledger cross-verification discrepancies: %d\n", disc)
	inv := economics.Settle(net.Provider(ids[0]).Ledger, economics.RateCard{Default: 0.20})
	for _, v := range inv {
		fmt.Printf("  %s bills %s $%.2f (%.2f GB)\n",
			v.Flow.Carrier, v.Flow.Customer, v.AmountUSD, float64(v.Bytes)/1e9)
	}
	for _, pc := range economics.PeeringCandidates(net.Provider(ids[0]).Ledger, bytesPer, 0.3) {
		fmt.Printf("  peering recommended: %s ↔ %s (symmetry %.2f)\n", pc.A, pc.B, pc.Symmetry)
	}
	return nil
}

// runCapacity reports the federation's traffic-engineering picture at t=0:
// the gateway-pair demand matrix the user population induces, the max-min
// fair allocation the constellation can carry, and the bottleneck both the
// allocator and the top pair's max-flow min-cut identify.
func runCapacity(providers, users int, seed int64, workers int) error {
	if providers <= 0 || users <= 0 {
		return fmt.Errorf("providers and users must be positive")
	}
	pcs, err := core.IridiumFederation(providers)
	if err != nil {
		return err
	}
	var gws []traffic.Gateway
	for _, pc := range pcs {
		gs := pc.GroundStations[0]
		gws = append(gws, traffic.Gateway{ID: gs.ID, Pos: gs.Pos})
	}
	net, err := core.NewNetwork(core.NetworkConfig{
		Providers: pcs, Seed: seed, Topo: topo.Config{Workers: workers},
	})
	if err != nil {
		return err
	}
	// The demand matrix needs the constellation's satellites in orbit order.
	c, err := orbit.Iridium().Build()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	positions := sim.CityUsers(users, 30, rng)
	for i, pos := range positions {
		if _, err := net.AddUser(fmt.Sprintf("user-%d", i), fmt.Sprintf("prov-%d", i%providers), pos); err != nil {
			return err
		}
	}
	if err := net.BuildTopology(0, 60, 60); err != nil {
		return err
	}

	dcfg := traffic.DefaultDemandConfig()
	dcfg.WindowS = 1 // the report is for the t=0 snapshot
	dm, err := traffic.BuildDemandMatrix(gws, c.Satellites, positions, dcfg, rng)
	if err != nil {
		return err
	}
	fmt.Printf("traffic engineering: %d providers, %d satellites, %d users, %d gateways (%d lit)\n",
		providers, c.Len(), users, len(gws), len(dm.LitGateways))
	fmt.Printf("demand matrix: %d gateway pairs, %.2f Gbps offered (%d local users, %d unserved)\n",
		len(dm.Demands), dm.OfferedBps()/1e9, dm.LocalUsers, dm.UnservedUsers)
	if len(dm.Demands) == 0 {
		return nil
	}

	tn := traffic.NewNetwork(net.Topology().At(0))
	tn.Recapacitate(traffic.DefaultCapacityModel())
	alloc, err := traffic.MaxMinFair(tn, dm.Demands, traffic.AllocConfig{KPaths: 4})
	if err != nil {
		return err
	}
	fmt.Printf("max-min fair allocation: %.2f of %.2f Gbps carried (%.0f%%), Jain fairness %.2f\n",
		alloc.CarriedBps()/1e9, alloc.OfferedBps()/1e9, alloc.SatisfiedFraction()*100, alloc.JainIndex())
	if link, util := alloc.MaxUtilization(); util > 0 {
		fmt.Printf("bottleneck link: %s → %s at %.0f%% utilisation\n", link.From, link.To, util*100)
	}
	for i := range alloc.Demands {
		d := &alloc.Demands[i]
		state := "satisfied"
		switch {
		case d.Path == nil:
			state = "unroutable"
		case !d.Satisfied():
			state = fmt.Sprintf("limited by %s→%s", d.Bottleneck.From, d.Bottleneck.To)
		}
		fmt.Printf("  %s → %s: %.0f of %.0f Mbps over %d hops (%s)\n",
			d.Src, d.Dst, d.RateBps/1e6, d.OfferedBps/1e6, len(d.Path)-1, state)
	}

	// Max-flow on the heaviest pair: the hard upper bound any routing
	// scheme could reach, and the physical cut that enforces it.
	top := dm.Demands[0]
	for _, d := range dm.Demands[1:] {
		if d.OfferedBps > top.OfferedBps {
			top = d
		}
	}
	mf, err := traffic.MaxFlow(tn, top.Src, top.Dst)
	if err != nil {
		return err
	}
	fmt.Printf("max flow %s → %s: %.2f Gbps across a %d-link min cut\n",
		top.Src, top.Dst, mf.ValueBps/1e9, len(mf.MinCut))
	return nil
}

// campaignOptions carries the -campaign flag group.
type campaignOptions struct {
	quick        bool
	workers      int
	cellID       string
	checkpoint   string
	resume       bool
	stopAfter    int
	keepGoing    bool
	injectPanic  string
	csvPath      string
	manifestPath string
}

// writeFileVia writes one campaign artifact through the given writer
// function, to a file when path is set or to stdout otherwise.
func writeFileVia(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() //lint:allow errdrop the write error above is the primary failure
		return err
	}
	return f.Close()
}

// runCampaign drives the E17 campaign: expand the matrix, supervise
// every cell (panic containment, event budget, bounded retry), degrade
// failures into manifest rows, and honour checkpoint/resume. With
// -cell it runs one cell inline and prints its canonical row instead.
func runCampaign(opts campaignOptions) error {
	spec := campaign.DefaultSpec()
	if opts.quick {
		spec = campaign.QuickSpec()
	}
	if opts.cellID != "" {
		c, ok := spec.Find(opts.cellID)
		if !ok {
			return fmt.Errorf("campaign: no cell %q in the %s matrix", opts.cellID, spec.Name)
		}
		m, err := campaign.RunCell(spec, c)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n%s,%s\n", strings.Join(campaign.MetricFields, ","), c.ID, m.Row())
		return nil
	}

	fn := campaign.CellRunner(spec)
	if opts.injectPanic != "" {
		if _, ok := spec.Find(opts.injectPanic); !ok {
			return fmt.Errorf("campaign: -inject-panic cell %q is not in the %s matrix", opts.injectPanic, spec.Name)
		}
		inner := fn
		fn = func(c campaign.Cell) (campaign.Metrics, error) {
			if c.ID == opts.injectPanic {
				panic("injected test panic in cell " + c.ID)
			}
			return inner(c)
		}
	}

	cfg := campaign.DefaultConfig()
	cfg.Workers = opts.workers
	cfg.CheckpointPath = opts.checkpoint
	cfg.Resume = opts.resume
	cfg.StopAfter = opts.stopAfter
	out, err := campaign.Run(spec, cfg, fn)
	if err != nil {
		return err
	}

	fails := out.Failures()
	fmt.Fprintf(os.Stderr, "campaign %s: %d/%d cells complete, %d failed\n",
		spec.Name, len(out.Cells), len(out.Cells)+len(out.Pending), len(fails))
	if err := writeFileVia(opts.csvPath, out.WriteCSV); err != nil {
		return err
	}
	if opts.manifestPath != "" || len(fails) > 0 {
		if err := writeFileVia(opts.manifestPath, out.WriteManifest); err != nil {
			return err
		}
	}
	if len(fails) > 0 && !opts.keepGoing {
		return fmt.Errorf("campaign: %d cells failed (see manifest); -keep-going to exit 0 anyway", len(fails))
	}
	return nil
}

// buildFederation assembles the Iridium federation with one gateway per
// provider and no users — the shared setup of the engine-driven modes.
func buildFederation(providers int, seed int64, workers int) (*core.Network, error) {
	pcs, err := core.IridiumFederation(providers)
	if err != nil {
		return nil, err
	}
	return core.NewNetwork(core.NetworkConfig{
		Providers: pcs, Seed: seed, Topo: topo.Config{Workers: workers},
	})
}

// buildScenarioNetwork adds the city-weighted user population on top of
// buildFederation — the setup of the -scenario and -faults modes.
func buildScenarioNetwork(providers, users int, seed int64, workers int) (*core.Network, error) {
	if users <= 0 {
		return nil, fmt.Errorf("users must be positive")
	}
	net, err := buildFederation(providers, seed, workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i, pos := range sim.CityUsers(users, 30, rng) {
		if _, err := net.AddUser(fmt.Sprintf("user-%d", i), fmt.Sprintf("prov-%d", i%providers), pos); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// runAggregate drives the fluid-aggregation scenario: the population never
// materialises as terminals, so -users can be millions without the event
// count growing past O(epochs + fault transitions).
func runAggregate(providers, users int, duration float64, seed int64, workers int, fcfg faults.Config) error {
	if users <= 0 {
		return fmt.Errorf("users must be positive")
	}
	net, err := buildFederation(providers, seed, workers)
	if err != nil {
		return err
	}
	res, err := net.RunScenario(core.Scenario{
		DurationS:         duration,
		SnapshotIntervalS: 60,
		Seed:              seed,
		Faults:            fcfg,
		Aggregate:         fluid.Config{Users: users},
	})
	if err != nil {
		return err
	}
	fr := res.Fluid
	fmt.Printf("fluid scenario over %.0f s: %d effective users in %d epochs\n",
		duration, users, fr.Epochs)
	fmt.Printf("transfers: %d attempted, %d delivered (%.1f%%), %d local, %.2f GB\n",
		fr.TransfersAttempted, fr.TransfersDelivered, fr.DeliveredFraction()*100,
		fr.LocalTransfers, float64(fr.BytesDelivered)/1e9)
	fmt.Printf("carried capacity: %.2f Gbps | latency ms: p50 %.1f p95 %.1f\n",
		fr.CarriedBps()/1e9, fr.Latency.Quantile(0.5)*1000, fr.Latency.Quantile(0.95)*1000)
	for _, cls := range fr.PerClass {
		fmt.Printf("  class %-6s %d/%d delivered | p50 %.1f ms p95 %.1f ms\n",
			cls.Name, cls.TransfersDelivered, cls.TransfersAttempted,
			cls.Latency.Quantile(0.5)*1000, cls.Latency.Quantile(0.95)*1000)
	}
	fmt.Printf("retries %d | recovered %d | abandoned %d | pending %d\n",
		fr.Retries, fr.Recovered, fr.Abandoned, fr.PendingTransfers)
	fmt.Printf("faults: %d transitions | engine events processed: %d\n",
		res.FaultEvents, res.EventsProcessed)
	return nil
}

// runScenario drives the engine-based workload (core.RunScenario).
func runScenario(providers, users int, duration float64, seed int64, workers int) error {
	net, err := buildScenarioNetwork(providers, users, seed, workers)
	if err != nil {
		return err
	}
	res, err := net.RunScenario(core.Scenario{
		DurationS:         duration,
		SnapshotIntervalS: 60,
		PerUserRate:       0.02,
		MinBytes:          1_000_000,
		MaxBytes:          500_000_000,
		Seed:              seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("scenario over %.0f s: %d/%d transfers delivered (%.0f%%), %.2f GB\n",
		duration, res.TransfersDelivered, res.TransfersAttempted,
		res.DeliveryRate()*100, float64(res.BytesDelivered)/1e9)
	fmt.Printf("latency ms: mean %.1f | p95 %.1f\n",
		res.LatencyS.Mean()*1000, res.LatencyS.Quantile(0.95)*1000)
	fmt.Printf("handovers: %d (%d cross-provider) | fees: carriage $%.2f gateway $%.2f\n",
		res.Handovers, res.CrossProviderHandovers, res.CarriageUSD, res.GatewayUSD)
	fmt.Printf("engine events processed: %d\n", res.EventsProcessed)
	return nil
}

// runFaults injects a deterministic fault environment and reports both
// views of robustness: per-flow availability with fast reroute on the
// static t=0 topology, and the full engine scenario where terminals drop,
// re-associate and transfers retry with backoff.
func runFaults(providers, users int, duration, intensity float64, seed int64, workers int) error {
	if err := faults.CheckIntensity(intensity); err != nil {
		return err
	}
	net, err := buildScenarioNetwork(providers, users, seed, workers)
	if err != nil {
		return err
	}
	fcfg := faults.Default()
	fcfg.Seed = seed
	fcfg = fcfg.Scale(intensity)

	if err := net.BuildTopology(0, duration, 60); err != nil {
		return err
	}
	snap := net.Topology().At(0)
	in := faults.InputsFromSnapshot(snap)
	tl, err := faults.Generate(fcfg, duration, in)
	if err != nil {
		return err
	}
	counts := map[faults.Kind]int{}
	for _, ev := range tl.Events {
		counts[ev.Kind]++
	}
	fmt.Printf("fault timeline over %.0f s at ×%.3g intensity: %d events "+
		"(%d sat failures, %d ISL flaps, %d ground outages, %d storm hits)\n",
		duration, intensity, len(tl.Events),
		counts[faults.KindSatFailure], counts[faults.KindISLFlap],
		counts[faults.KindGroundOutage], counts[faults.KindStorm])

	// Protected flows: each user toward its provider's gateway, with
	// precomputed disjoint backups and fast reroute.
	var specs []faults.FlowSpec
	for i := 0; i < users; i++ {
		uid := fmt.Sprintf("user-%d", i)
		gs := fmt.Sprintf("gs-%d", i%providers)
		specs = append(specs, faults.FlowSpec{ID: uid + "→" + gs, Src: uid, Dst: gs})
	}
	rr, err := faults.RunFlows(snap, specs, tl, faults.DefaultRecovery(), routing.LatencyCost(0))
	if err != nil {
		return err
	}
	fmt.Printf("protected flows (t=0 snapshot, %d fault transitions):\n", rr.FaultTransitions)
	for _, f := range rr.Flows {
		if f.NoPath {
			fmt.Printf("  %-20s no path on the intact topology\n", f.ID)
			continue
		}
		tag := "primary"
		if f.OnBackup {
			tag = "on backup"
		}
		fmt.Printf("  %-20s avail %.6f | %d interruptions | %d fast reroutes | down %.2f s | %s\n",
			f.ID, f.Avail.Availability(rr.HorizonS), f.Avail.Interruptions,
			f.Avail.Reroutes, f.Avail.DowntimeS, tag)
	}

	// Full engine scenario under the same fault environment.
	res, err := net.RunScenario(core.Scenario{
		DurationS:         duration,
		SnapshotIntervalS: 60,
		PerUserRate:       0.02,
		MinBytes:          1_000_000,
		MaxBytes:          500_000_000,
		Seed:              seed,
		Faults:            fcfg,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fault scenario over %.0f s: %d/%d transfers delivered (%.0f%%), %.2f GB\n",
		duration, res.TransfersDelivered, res.TransfersAttempted,
		res.DeliveryRate()*100, float64(res.BytesDelivered)/1e9)
	fmt.Printf("faults: %d transitions | %d terminals dropped | %d retries | %d recovered | %d abandoned\n",
		res.FaultEvents, res.DroppedTerminals, res.Retries,
		res.RecoveredTransfers, res.AbandonedTransfers)
	fmt.Printf("handovers: %d (%d cross-provider) | latency ms: mean %.1f p95 %.1f\n",
		res.Handovers, res.CrossProviderHandovers,
		res.LatencyS.Mean()*1000, res.LatencyS.Quantile(0.95)*1000)
	return nil
}
