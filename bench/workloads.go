package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/openspace-project/openspace/internal/campaign"
	"github.com/openspace-project/openspace/internal/experiments"
)

// params fixes one execution of a workload.
type params struct {
	// seed is added to every config's Seed; 0 keeps the committed seeds,
	// which is what lets the golden gate compare against results/.
	seed    int64
	workers int
	// quick selects the openspace-bench CLI's -quick sizes (smoke mode).
	quick bool
}

// output is one CSV a workload emits.
type output struct {
	file string // the committed results/ file it reproduces
	// keys are the first-column keys of the golden rows the CSV must
	// reproduce; nil means the whole file, byte for byte.
	keys []string
	csv  []byte
}

// workload is one set of inputs the benchmark runs. run drives the
// experiment entry points exactly as openspace-bench does and is what the
// end-to-end metrics time; replay redoes the same work through the layers'
// public functions with a span around each call, for the per-layer metrics.
// Both must emit the same bytes.
type workload struct {
	name, why string
	files     []string
	run       func(p params) ([]output, error)
	replay    func(p params, t *tracer) ([]output, error)
}

// workloads are run in this order; round k of a full run starts at
// workload k mod len(workloads).
var workloads = []workload{
	{
		name:   "fig2-paper",
		why:    "the paper's Fig. 2: thousands of small topo.Build calls and geo coverage scans, no traffic work",
		files:  []string{"fig2a.csv", "fig2b.csv", "fig2c.csv"},
		run:    runFig2,
		replay: replayFig2,
	},
	{
		name:   "capacity-mega",
		why:    "max-min fair allocation with Yen k=8 on a 2 008-node +Grid graph: big-graph routing",
		files:  []string{"capacity-scale.csv"},
		run:    runCapacity,
		replay: replayCapacity,
	},
	{
		name:   "users-fluid",
		why:    "fluid epochs: MaxMinFair over ~1 200 aggregates on a 508-node graph, reusing scratch",
		files:  []string{"users-scale.csv"},
		run:    runUsers,
		replay: replayUsers,
	},
	{
		name:   "campaign-perflow",
		why:    "per-flow campaign cells: core send/handover, small-graph Dijkstra, sim dispatch, fault overlays",
		files:  []string{"disruption-campaign.csv"},
		run:    runCampaign,
		replay: replayCampaign,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

// fig2Configs is the paper's Fig. 2 at its committed sizes.
func fig2Configs(p params) (gridSize int, b experiments.Fig2bConfig, c experiments.Fig2cConfig) {
	gridSize, b, c = 10000, experiments.DefaultFig2b(), experiments.DefaultFig2c()
	if p.quick {
		gridSize = 2000
		b.MaxSats, b.Step, b.Trials = 40, 6, 8
		c.MaxSats, c.Step, c.Trials, c.GridSize = 60, 6, 8, 2000
	}
	b.Seed += p.seed
	c.Seed += p.seed
	b.Workers, c.Workers = p.workers, p.workers
	return gridSize, b, c
}

// capacityConfig is one N=2000 point of the committed capacity-scale
// sweep. Rows are independent per N, so it must reproduce that row.
func capacityConfig(p params) experiments.CapacityConfig {
	cfg := experiments.DefaultCapacityScale()
	cfg.MinSats, cfg.MaxSats = 2000, 2000
	if p.quick {
		cfg.MinSats, cfg.MaxSats, cfg.Trials = 1000, 1000, 2
	}
	cfg.Seed += p.seed
	cfg.Workers = p.workers
	return cfg
}

func capacityKeys(cfg experiments.CapacityConfig) []string {
	var keys []string
	for n := cfg.MinSats; n <= cfg.MaxSats; n += cfg.Step {
		keys = append(keys, strconv.Itoa(n))
	}
	return keys
}

// usersConfig is two cells of the committed users-scale sweep: one still
// mostly served, one deep in saturation. Cells share only the read-only
// snapshots, so each reproduces its committed row.
func usersConfig(p params) experiments.UsersScaleConfig {
	cfg := experiments.DefaultUsersScale()
	cfg.UserCounts = []int{100_000, 10_000_000}
	if p.quick {
		cfg.Sats, cfg.UserCounts, cfg.DurationS = 128, []int{10_000, 1_000_000}, 300
	}
	cfg.Seed += p.seed
	cfg.Workers = p.workers
	return cfg
}

func usersKeys(cfg experiments.UsersScaleConfig) []string {
	keys := make([]string, len(cfg.UserCounts))
	for i, u := range cfg.UserCounts {
		keys[i] = strconv.Itoa(u)
	}
	return keys
}

// campaignSpec is the committed disruption campaign restricted to its
// per-flow workload and to the fault-free and ×4 intensities. Cells are
// seeded by their ID, so each reproduces its committed row.
func campaignSpec(p params) campaign.Spec {
	spec := campaign.DefaultSpec()
	if p.quick {
		spec = campaign.QuickSpec()
	}
	spec.Workloads = []string{campaign.WorkloadInteractive}
	spec.Intensities = []float64{0, 4}
	spec.Seed += p.seed
	return spec
}

func campaignKeys(spec campaign.Spec) []string {
	cells := spec.Cells()
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.ID
	}
	return keys
}

// csvWriter is what every experiment result implements.
type csvWriter interface{ CSV(io.Writer) error }

func emit(file string, keys []string, r csvWriter) (output, error) {
	var b bytes.Buffer
	if err := r.CSV(&b); err != nil {
		return output{}, fmt.Errorf("%s: %w", file, err)
	}
	return output{file: file, keys: keys, csv: b.Bytes()}, nil
}

func runFig2(p params) ([]output, error) {
	grid, bcfg, ccfg := fig2Configs(p)
	a, err := experiments.Fig2a(grid)
	if err != nil {
		return nil, err
	}
	b, err := experiments.Fig2b(bcfg)
	if err != nil {
		return nil, err
	}
	c, err := experiments.Fig2c(ccfg)
	if err != nil {
		return nil, err
	}
	var outs []output
	for _, o := range []struct {
		file string
		r    csvWriter
	}{{"fig2a.csv", a}, {"fig2b.csv", b}, {"fig2c.csv", c}} {
		out, err := emit(o.file, nil, o.r)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

func runCapacity(p params) ([]output, error) {
	cfg := capacityConfig(p)
	res, err := experiments.Capacity(cfg)
	if err != nil {
		return nil, err
	}
	out, err := emit("capacity-scale.csv", capacityKeys(cfg), res)
	return []output{out}, err
}

func runUsers(p params) ([]output, error) {
	cfg := usersConfig(p)
	res, err := experiments.UsersScale(cfg)
	if err != nil {
		return nil, err
	}
	out, err := emit("users-scale.csv", usersKeys(cfg), res)
	return []output{out}, err
}

func runCampaign(p params) ([]output, error) {
	spec := campaignSpec(p)
	res, err := experiments.Disruption(experiments.DisruptionConfig{Spec: spec, Workers: p.workers})
	if err != nil {
		return nil, err
	}
	out, err := emit("disruption-campaign.csv", campaignKeys(spec), res)
	return []output{out}, err
}

// loadGoldens reads the committed CSVs a workload reproduces.
func loadGoldens(root string, files []string) (map[string][]byte, error) {
	g := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, "results", f))
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		g[f] = b
	}
	return g, nil
}

// checkGolden compares an emitted CSV with its committed golden and
// returns how many golden rows were expected and how many of them are
// missing or differ. With keys nil every golden row is expected and the
// file must match byte for byte; otherwise only the rows whose first
// column is in keys are, each byte for byte.
func checkGolden(golden, got []byte, keys []string) (expected, failed int) {
	gHead, gRows, gOrder := splitCSV(golden)
	oHead, oRows, oOrder := splitCSV(got)
	whole := keys == nil
	if whole {
		keys = gOrder
	}
	expected = len(keys)
	if whole && bytes.Equal(golden, got) {
		return expected, 0
	}
	if gHead != oHead {
		return expected, expected
	}
	for _, k := range keys {
		g, ok := gRows[k]
		if o, have := oRows[k]; !ok || !have || o != g {
			failed++
		}
	}
	if whole {
		for _, k := range oOrder {
			if _, ok := gRows[k]; !ok {
				failed++
			}
		}
		if failed == 0 {
			failed = 1 // same rows, yet the bytes differ: order or line endings
		}
	}
	return expected, min(failed, expected)
}

// splitCSV returns a CSV's header line, its data rows keyed by first
// column, and the keys in file order. The first row with a key wins.
func splitCSV(b []byte) (header string, rows map[string]string, order []string) {
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	header = lines[0]
	rows = make(map[string]string, len(lines))
	for _, l := range lines[1:] {
		k, _, _ := strings.Cut(l, ",")
		if _, dup := rows[k]; dup {
			continue
		}
		rows[k] = l
		order = append(order, k)
	}
	return header, rows, order
}

// rowCount is the number of data rows in a CSV.
func rowCount(b []byte) int {
	return max(bytes.Count(b, []byte("\n"))-1, 0)
}
