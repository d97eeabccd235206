package sim

import (
	"fmt"

	"repro/internal/eventq"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FederatedConfig describes a federated run: a platform of independent
// clusters, a routing policy in front of them, and a factory producing
// one fresh heuristic-triple session per cluster. Each cluster runs its
// own policy and predictor instance — scheduling state, backfilling
// reservations and learned per-user history never cross clusters; only
// the router sees the whole platform.
type FederatedConfig struct {
	// Clusters describes the platform. Normalized (named, validated)
	// internally; at least one cluster is required.
	Clusters []platform.Cluster
	// Router picks the destination cluster at submit time. Nil defaults
	// to round-robin.
	Router sched.Router
	// Session returns the heuristic triple for one cluster. It is called
	// once per cluster, so stateful policies and predictors get
	// independent sessions. The returned Config's Script and Sink must
	// be nil: disruptions and observation are per-run, not per-cluster
	// (use FederatedConfig.Script and Sink). The corrector of the first
	// session is used for the whole run.
	Session func() Config
	// Script optionally injects timed disruptions. Drains and restores
	// target the cluster named by their Cluster field (empty means the
	// first cluster); cancellations find their job wherever it is.
	Script *scenario.Script
	// Sink, when non-nil, observes every finished job exactly once, in
	// event order (see Config.Sink). Jobs carry their destination in
	// Job.Cluster, which is how metrics.Federated splits them.
	Sink JobSink
	// Tracer and Profile enable the flight recorder and the per-stage
	// latency histograms for the whole run (see Config.Tracer and
	// Config.Profile). Like Script and Sink, they are run-wide: the
	// per-cluster session Configs must leave them unset.
	Tracer  obs.Tracer
	Profile bool
}

// setup validates the config and initializes e over its N clusters.
func (fed FederatedConfig) setup(e *engine, name string) error {
	clusters, err := platform.Normalize(fed.Clusters)
	if err != nil {
		return err
	}
	if fed.Session == nil {
		return fmt.Errorf("sim: federated run needs a Session factory")
	}
	router := fed.Router
	if router == nil {
		router = &sched.RoundRobin{}
	}
	res := &Result{
		Workload: name,
		MaxProcs: platform.ClustersTotal(clusters),
		Routing:  router.Name(),
		Clusters: make([]ClusterResult, len(clusters)),
	}
	e.init(res, router, fed.Sink, fed.Tracer, fed.Profile)
	e.views = make([]sched.ClusterState, len(clusters))
	for i, c := range clusters {
		cfg := fed.Session()
		corrector, err := checkConfig(cfg)
		if err != nil {
			return fmt.Errorf("sim: cluster %s session: %w", c.Name, err)
		}
		if cfg.Script != nil || cfg.Sink != nil || cfg.Tracer != nil || cfg.Profile {
			return fmt.Errorf("sim: cluster %s session: Script, Sink, Tracer and Profile belong on FederatedConfig, not the per-cluster Config", c.Name)
		}
		if i == 0 {
			res.Triple = cfg.Name()
			e.corrector = corrector
		}
		res.Clusters[i] = ClusterResult{Name: c.Name, MaxProcs: c.Procs, Speed: c.SpeedFactor()}
		e.addCluster(c, cfg, &res.Clusters[i])
	}
	return nil
}

// clusterIndex resolves a scenario event's cluster name against the
// engine's platform. Empty names mean the first cluster, so
// single-machine scripts replay unchanged on a federation's head.
func (e *engine) clusterIndex(name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	if e.router == nil {
		return 0, fmt.Errorf("sim: scenario targets cluster %q but the run is single-machine (use a federated driver)", name)
	}
	for i, c := range e.clusters {
		if c.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sim: scenario targets unknown cluster %q", name)
}

// pushScript seeds the event queue with the scenario's disruptions,
// resolving cluster names. Cancellations resolve through byID on
// preloading runs; a nil byID means a streaming run, where they are
// tracked by ID in the engine's target map instead.
func (e *engine) pushScript(script *scenario.Script, byID map[int64]*job.Job) error {
	if script.Empty() {
		return nil
	}
	e.res.Scenario = script.Name
	for _, ev := range script.Events {
		switch {
		case ev.Time < 0:
			return fmt.Errorf("sim: scenario event at negative instant %d", ev.Time)
		case (ev.Action == scenario.Drain || ev.Action == scenario.Restore) && ev.Procs > 0:
			ci, err := e.clusterIndex(ev.Cluster)
			if err != nil {
				return err
			}
			kind := eventq.Drain
			if ev.Action == scenario.Restore {
				kind = eventq.Restore
			}
			e.q.Push(ev.Time, kind, payload{procs: ev.Procs, cluster: ci})
		case ev.Action == scenario.Cancel:
			if byID == nil {
				if e.targets == nil {
					e.targets = make(map[int64]*cancelTarget)
				}
				if e.targets[ev.JobID] == nil {
					e.targets[ev.JobID] = &cancelTarget{}
				}
				e.q.Push(ev.Time, eventq.Cancel, payload{id: ev.JobID})
			} else if j := byID[ev.JobID]; j != nil {
				e.q.Push(ev.Time, eventq.Cancel, payload{j: j})
			}
			// Unknown IDs on the preloading path are ignored: scripts
			// derived from a raw log may name jobs the cleaning dropped.
		default:
			return fmt.Errorf("sim: scenario %s event with %d processors", ev.Action, ev.Procs)
		}
	}
	return nil
}

// RunFederated simulates the workload over a federated platform,
// preloading every job and retaining the full realized schedule, the
// per-cluster counters and the per-cluster capacity timelines on the
// Result. A one-cluster federation with a unit speed factor reproduces
// Run byte for byte — the identity federated_diff_test.go enforces.
func RunFederated(w *trace.Workload, fed FederatedConfig) (*Result, error) {
	var e engine
	if err := fed.setup(&e, w.Name); err != nil {
		return nil, err
	}
	return e.preload(w, fed.Script)
}

// RunFederatedStream is the bounded-memory federated driver: it pulls
// submissions lazily from src and retires finished jobs into fed.Sink,
// like RunStream, while routing each submission across the federation
// like RunFederated. Peak memory is O(live jobs + window) summed over
// the clusters. A one-cluster unit-speed federation reproduces
// RunStream byte for byte.
func RunFederatedStream(name string, src workload.Source, fed FederatedConfig) (*Result, error) {
	var e engine
	if err := fed.setup(&e, name); err != nil {
		return nil, err
	}
	return e.stream(src, fed.Script)
}
