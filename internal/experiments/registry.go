package experiments

import (
	"io"

	"github.com/openspace-project/openspace/internal/campaign"
	"github.com/openspace-project/openspace/internal/geo"
)

// Result is the common shape of experiment results: an ASCII rendering
// for the terminal and a CSV for plotting.
type Result interface {
	Render(io.Writer) error
	CSV(io.Writer) error
}

// Experiment is one registered experiment. Run builds its config — the
// full-size default, or the reduced sweep when quick — and runs it on the
// given number of workers (≤0 = one per CPU).
type Experiment struct {
	Name string
	Run  func(quick bool, workers int) (Result, error)
}

// Registry is every experiment, in run order: the one table of names and
// quick sizes that the openspace-bench CLI, the worker-invariance test and
// the benchmarks iterate. Entries are closures, so no config is built
// until an experiment runs.
var Registry = []Experiment{
	{"fig2a", func(quick bool, _ int) (Result, error) {
		if quick {
			return Fig2a(2000)
		}
		return Fig2a(10000)
	}},
	{"fig2b", func(quick bool, workers int) (Result, error) {
		cfg := DefaultFig2b()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials = 40, 6, 8
		}
		cfg.Workers = workers
		return Fig2b(cfg)
	}},
	{"fig2c", func(quick bool, workers int) (Result, error) {
		cfg := DefaultFig2c()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials, cfg.GridSize = 60, 6, 8, 2000
		}
		cfg.Workers = workers
		return Fig2c(cfg)
	}},
	{"capacity", func(quick bool, workers int) (Result, error) {
		cfg := DefaultCapacity()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials, cfg.Users = 40, 8, 3, 120
		}
		cfg.Workers = workers
		return Capacity(cfg)
	}},
	{"federation", func(quick bool, workers int) (Result, error) {
		cfg := DefaultFederation()
		cfg.Workers = workers
		// The hotspot probe flies the full-size fleets even when quick.
		solo, fed, err := HotspotScenario(cfg, geo.LatLon{Lat: 7.1, Lon: 125.6}, 500)
		if err != nil {
			return nil, err
		}
		if quick {
			cfg.MaxPerFleet, cfg.Step, cfg.GridSize = 12, 4, 2000
		}
		r, err := Federation(cfg)
		if err != nil {
			return nil, err
		}
		return &federationResult{r, solo, fed}, nil
	}},
	{"handover", func(quick bool, workers int) (Result, error) {
		cfg := DefaultHandover()
		if quick {
			cfg.HorizonS = 1200
		}
		cfg.Workers = workers
		return HandoverExperiment(cfg)
	}},
	{"mac", func(quick bool, workers int) (Result, error) {
		cfg := DefaultMAC()
		if quick {
			cfg.MaxStations = 12
		}
		cfg.Workers = workers
		return MACExperiment(cfg)
	}},
	{"economics", func(quick bool, workers int) (Result, error) {
		cfg := DefaultEcon()
		if quick {
			cfg.Transfers = 40
		}
		cfg.Workers = workers
		return EconExperiment(cfg)
	}},
	{"links", func(bool, int) (Result, error) {
		return LinksExperiment(DefaultLinkDistances())
	}},
	{"routingablation", func(_ bool, workers int) (Result, error) {
		cfg := DefaultRoutingAblation()
		cfg.Workers = workers
		return RoutingAblation(cfg)
	}},
	{"spectrum", func(_ bool, workers int) (Result, error) {
		cfg := DefaultSpectrum()
		cfg.Workers = workers
		return SpectrumExperiment(cfg)
	}},
	{"resilience", func(quick bool, workers int) (Result, error) {
		cfg := DefaultResilience()
		if quick {
			cfg.MaxFailures, cfg.Step, cfg.Trials = 24, 8, 4
		}
		cfg.Workers = workers
		return Resilience(cfg)
	}},
	{"dtn", func(quick bool, workers int) (Result, error) {
		cfg := DefaultDTN()
		if quick {
			cfg.FleetSizes = []int{4, 12}
			cfg.Trials, cfg.HorizonS, cfg.IntervalS = 3, 3*3600, 300
		}
		cfg.Workers = workers
		return DTNExperiment(cfg)
	}},
	{"incentives", func(_ bool, workers int) (Result, error) {
		cfg := DefaultIncentives()
		cfg.Workers = workers
		return IncentivesExperiment(cfg)
	}},
	{"criticalmass", func(quick bool, workers int) (Result, error) {
		cfg := DefaultCriticalMass()
		if quick {
			cfg.MaxSats, cfg.Step, cfg.Trials = 40, 8, 3
		}
		cfg.Workers = workers
		return CriticalMass(cfg)
	}},
	{"availability", func(quick bool, workers int) (Result, error) {
		cfg := DefaultAvailability()
		if quick {
			cfg.Intensities = []float64{0, 1, 4}
			cfg.Trials, cfg.HorizonS = 2, 3600
		}
		cfg.Workers = workers
		return Availability(cfg)
	}},
	{"capacity-scale", func(quick bool, workers int) (Result, error) {
		cfg := DefaultCapacityScale()
		if quick {
			// One N=1000 +Grid cell.
			cfg.MinSats, cfg.MaxSats, cfg.Trials = 1000, 1000, 2
		}
		cfg.Workers = workers
		return Capacity(cfg)
	}},
	{"users-scale", func(quick bool, workers int) (Result, error) {
		cfg := DefaultUsersScale()
		if quick {
			// Two cells on a smaller +Grid.
			cfg.Sats = 128
			cfg.UserCounts = []int{10_000, 1_000_000}
			cfg.DurationS = 300
		}
		cfg.Workers = workers
		return UsersScale(cfg)
	}},
	{"disruption-campaign", func(quick bool, workers int) (Result, error) {
		cfg := DefaultDisruption()
		if quick {
			// The 8-cell quick matrix.
			cfg.Spec = campaign.QuickSpec()
		}
		cfg.Workers = workers
		return Disruption(cfg)
	}},
	{"availability-scale", func(quick bool, workers int) (Result, error) {
		cfg := DefaultAvailabilityScale()
		if quick {
			// One N=1000 +Grid cell.
			cfg.GridSats = 1000
			cfg.Intensities = []float64{0, 1}
			cfg.Trials, cfg.HorizonS = 1, 1800
		}
		cfg.Workers = workers
		return Availability(cfg)
	}},
}
