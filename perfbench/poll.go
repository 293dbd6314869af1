package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/change"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/qss"
	"repro/internal/repl"
	"repro/internal/timestamp"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// pollSpec describes one QSS poll workload. The DOEM history grows with
// every poll, so a run is made of episodes of a fixed number of rounds:
// every episode does the same work on every commit, and a faster program
// fits more episodes into --seconds.
type pollSpec struct {
	restaurants int // per source
	stepOps     int // evolver operations per mutation
	rounds      int // polls per subscription per episode
	// fanout selects one shared source with fanoutSubs standing
	// subscriptions, replicated to a follower; otherwise each client owns
	// one source with one subscription.
	fanout bool
}

const (
	// fanoutSubs is the standing-subscription count of poll-fanout-repl.
	fanoutSubs = 128
	// pingsPerClient sizes wire.rtt_ms.
	pingsPerClient = 100
)

var (
	bigDB      = pollSpec{restaurants: 1000, stepOps: 5, rounds: 120}
	fanoutRepl = pollSpec{restaurants: 100, stepOps: 3, rounds: 20, fanout: true}
)

// oplogSync is the oplog flush policy of poll-fanout-repl: cmd/qss's
// default -walsync.
var oplogSync = wal.Options{Sync: wal.SyncInterval}

// runPoll runs a poll workload. Untraced, episodes fill the whole run.
// Traced, untraced and traced episodes alternate, each kind filling half.
func runPoll(spec pollSpec, o options) (*report, error) {
	rep := &report{}
	budget := o.seconds
	var agg *layerAgg
	if o.trace {
		budget /= 2
		agg = newLayerAgg()
		defer obs.SetEnabled(false)
	}
	var setups, lat, heaps, rates []float64
	var busy time.Duration
	var tracedOps int
	setupStart := processStart
	for busy < budget || (agg != nil && agg.busy < budget) {
		traced := agg != nil && (busy >= budget || agg.busy < busy)
		var epAgg *layerAgg
		if traced {
			epAgg = agg
		}
		obs.SetEnabled(traced)
		ep, err := runEpisode(spec, o.seed, rep, epAgg, setupStart)
		if err != nil {
			return nil, err
		}
		setupStart = time.Time{}
		rep.episodes++
		fmt.Printf("episode %d traced=%t: setup %.3fs, %d polls in %.3fs\n",
			rep.episodes, traced, ep.setup.Seconds(), len(ep.lat), ep.busy.Seconds())
		if traced {
			tracedOps += len(ep.lat)
			agg.busy += ep.busy
			continue
		}
		setups = append(setups, ep.setup.Seconds())
		lat = append(lat, ep.lat...)
		heaps = append(heaps, ep.heapMB)
		rates = append(rates, float64(len(ep.lat))/ep.busy.Seconds())
		busy += ep.busy
	}
	if agg == nil {
		rep.endToEnd(setups, lat, heaps, rates)
		return rep, nil
	}
	rep.samples, rep.setups = len(lat), len(setups)
	agg.overhead = ratio(ratio(float64(tracedOps), agg.busy.Seconds()), ratio(float64(len(lat)), busy.Seconds()))
	agg.report(rep, spec.fanout)
	return rep, nil
}

// episodeResult is what one episode measured.
type episodeResult struct {
	setup  time.Duration
	lat    []float64 // per-poll latency, ms
	busy   time.Duration
	heapMB float64
}

// sub is one standing subscription of an episode.
type sub struct {
	name, source, filter string
	src                  int  // index of the polled source
	cre                  bool // output-checked creation filter
}

// receipt is a notification's arrival at a client.
type receipt struct {
	sub  string
	at   timestamp.Time
	when time.Time
}

// benchClient is one closed-loop client: a RobustClient that owns subs
// and polls them in order, plus a goroutine draining its notifications.
type benchClient struct {
	rc   *qss.RobustClient
	ping *qss.Client // traced episodes: Client.Ping round trips
	subs []sub

	// receipts carries arrival times to the poller in traced episodes.
	receipts chan receipt
	drained  chan struct{}

	mu   sync.Mutex
	seen map[string]map[string]int // creation sub -> restaurant name -> notifications naming it

	// Written by the client's poll goroutine, read after it is joined.
	lat       []float64
	attempted int
	errs      []string
	agg       *layerAgg // traced episodes: this client's breakdown
}

// drain records every notification until the client closes.
func (c *benchClient) drain(cre map[string]bool) {
	defer close(c.drained)
	for n := range c.rc.Notifications() {
		now := time.Now()
		if c.receipts != nil {
			select {
			case c.receipts <- receipt{sub: n.Subscription, at: n.At, when: now}:
			default: // the poller gave up on it
			}
		}
		if cre[n.Subscription] {
			c.mu.Lock()
			for _, name := range restaurantNames(n.Answer) {
				c.seen[n.Subscription][name]++
			}
			c.mu.Unlock()
		}
	}
}

// awaitReceipt waits for the notification of subscription s at time at.
func (c *benchClient) awaitReceipt(s string, at timestamp.Time) (time.Time, bool) {
	timeout := time.After(10 * time.Second)
	for {
		select {
		case r := <-c.receipts:
			if r.sub == s && r.at.Equal(at) {
				return r.when, true
			}
		case <-timeout:
			return time.Time{}, false
		}
	}
}

// episode is one set-up server with its sources, clients and, for
// poll-fanout-repl, its replication pair.
type episode struct {
	spec    pollSpec
	evs     []*guidegen.Evolver
	srcs    []*wrapper.Mutable
	srv     *qss.Server
	clients []*benchClient
	// expected lists, per source, every restaurant name the source has
	// held since the initial poll: each must reach every creation
	// subscription on that source exactly once.
	expected []map[string]bool
	// packaged is, per source, the node count the polling query packages
	// (traced episodes only; read by the source's pollers).
	packaged []atomic.Int64

	dir             string // oplog directories
	primary, follow *repl.Node
	replLn          net.Listener
	followState     *timedState
}

// runEpisode sets up an episode, runs its timed rounds, checks its
// outputs and tears it down. A nil agg runs it untraced. setupStart, when
// set, is when set-up began (process start for the first episode).
func runEpisode(spec pollSpec, seed int64, rep *report, agg *layerAgg, setupStart time.Time) (*episodeResult, error) {
	if setupStart.IsZero() {
		setupStart = time.Now()
	}
	e := &episode{spec: spec}
	defer e.close()
	if err := e.setup(seed, agg != nil); err != nil {
		return nil, err
	}
	res := &episodeResult{setup: time.Since(setupStart)}
	var before *obs.Snap
	if agg != nil {
		before = obs.Snapshot()
		e.followState.reset()
	}
	start := time.Now()
	e.rounds(agg != nil)
	res.busy = time.Since(start)
	res.heapMB = liveHeapMB()
	e.check(rep)
	if agg != nil {
		agg.counters(before, obs.Snapshot())
		if e.followState != nil {
			agg.followApplies += e.followState.n.Load()
			agg.followApply += time.Duration(e.followState.ns.Load())
		}
		e.pings()
	}
	for _, c := range e.clients {
		res.lat = append(res.lat, c.lat...)
		rep.attempted += int64(c.attempted)
		for _, msg := range c.errs {
			rep.fail("%s", msg)
		}
		if agg != nil {
			agg.merge(c.agg)
		}
	}
	return res, nil
}

// setup builds the sources, server, replication pair and clients, then
// subscribes and runs every subscription's initial poll.
func (e *episode) setup(seed int64, traced bool) error {
	nClients := clients()
	nSources := nClients
	if e.spec.fanout {
		nSources = 1
	}
	e.evs = newEvolvers(seed, nSources, e.spec.restaurants)
	e.packaged = make([]atomic.Int64, nSources)
	sources := make(map[string]wrapper.Source)
	for i, ev := range e.evs {
		src := wrapper.NewMutable(ev.DB)
		e.srcs = append(e.srcs, src)
		sources[fmt.Sprintf("guide%d", i)] = src
		exp := make(map[string]bool)
		for _, name := range restaurantNames(ev.DB) {
			exp[name] = true
		}
		e.expected = append(e.expected, exp)
		if traced {
			e.packaged[i].Store(int64(closureSize(ev.DB)))
		}
	}
	e.srv = qss.NewServerWith(sources, qss.RealClock{}, qss.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	if e.spec.fanout {
		if err := e.startReplication(ln.Addr().String()); err != nil {
			return err
		}
	}
	go e.srv.Serve(ln)

	// Subscriptions: one per source and client, or fanoutSubs split
	// across clients in blocks of one of each filter shape.
	var subs []sub
	if e.spec.fanout {
		for i := 0; i < fanoutSubs; i++ {
			name, filter, cre := fanoutSub(i)
			subs = append(subs, sub{name: name, source: "guide0", filter: filter, cre: cre})
		}
	} else {
		for i := 0; i < nSources; i++ {
			name := fmt.Sprintf("R%d", i)
			subs = append(subs, sub{name: name, source: fmt.Sprintf("guide%d", i), filter: fmt.Sprintf(fanoutShapes[0], name), src: i, cre: true})
		}
	}
	cre := make(map[string]bool)
	for _, s := range subs {
		cre[s.name] = s.cre
	}
	for i := 0; i < nClients; i++ {
		c := &benchClient{drained: make(chan struct{}), seen: make(map[string]map[string]int)}
		for j, s := range subs {
			owner := j
			if e.spec.fanout {
				owner = j / len(fanoutShapes)
			}
			if owner%nClients != i {
				continue
			}
			c.subs = append(c.subs, s)
			if s.cre {
				c.seen[s.name] = make(map[string]int)
			}
		}
		if traced {
			c.receipts = make(chan receipt, 1024)
			c.agg = newLayerAgg()
		}
		c.rc = qss.DialRobust(ln.Addr().String(), nil)
		e.clients = append(e.clients, c)
		go c.drain(cre)
		if traced {
			if c.ping, err = qss.Dial(ln.Addr().String()); err != nil {
				return err
			}
		}
	}
	// Initial polls: each client subscribes and polls its subscriptions
	// at the epoch, as a freshly connected qsc would.
	at := pollTime(0).String()
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		go func(i int, c *benchClient) {
			defer wg.Done()
			for _, s := range c.subs {
				if err := c.rc.Subscribe(s.name, s.source, "guide", "select guide.restaurant", s.filter, ""); err != nil {
					errs[i] = fmt.Errorf("subscribe %s: %w", s.name, err)
					return
				}
				if err := c.rc.Poll(s.name, at); err != nil {
					errs[i] = fmt.Errorf("initial poll %s: %w", s.name, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// startReplication opens the primary's replicated oplog (ack mode one,
// one expected follower) and an in-process follower streaming it over
// loopback, and waits until the follower is connected.
func (e *episode) startReplication(advertise string) error {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "fanout-")
	if err != nil {
		return err
	}
	e.dir = dir
	wopt := oplogSync
	e.primary, err = repl.Open(filepath.Join(dir, "primary"), qss.NewReplState(e.srv.Service()), repl.Config{
		ID:             "primary",
		Ack:            repl.AckOne,
		Replicas:       1,
		AckTimeout:     5 * time.Second,
		Advertise:      advertise,
		HeartbeatEvery: time.Second,
		WAL:            &wopt,
	})
	if err != nil {
		return err
	}
	if err := e.srv.EnableReplication(e.primary); err != nil {
		return err
	}
	if err := e.primary.Promote(); err != nil {
		return err
	}
	if e.replLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	go e.primary.Serve(e.replLn)

	// The follower's service is never polled: it only folds the stream.
	e.followState = &timedState{State: qss.NewReplState(qss.NewService(func(qss.Notification) {}))}
	fopt := oplogSync
	e.follow, err = repl.Open(filepath.Join(dir, "follower"), e.followState, repl.Config{
		ID:          "follower",
		IdleTimeout: 5 * time.Second,
		WAL:         &fopt,
	})
	if err != nil {
		return err
	}
	addr := e.replLn.Addr().String()
	if err := e.follow.Follow(func() (net.Conn, error) { return net.Dial("tcp", addr) }); err != nil {
		return err
	}
	return waitFor(func() bool { return e.primary.Status().Followers == 1 })
}

// waitFor polls cond for up to ten seconds.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// rounds runs the timed phase. In poll-bigdb each client loops on its own
// source: mutate, poll, wait for the reply. In poll-fanout-repl each round
// mutates the shared source once and then every subscription polls, each
// client working through its own subscriptions in order.
func (e *episode) rounds(traced bool) {
	var wg sync.WaitGroup
	if !e.spec.fanout {
		for i, c := range e.clients {
			wg.Add(1)
			go func(i int, c *benchClient) {
				defer wg.Done()
				for r := 1; r <= e.spec.rounds; r++ {
					start := e.mutate(i, traced)
					e.poll(c, c.subs[0], r, start, traced)
				}
			}(i, c)
		}
		wg.Wait()
		return
	}
	for r := 1; r <= e.spec.rounds; r++ {
		start := e.mutate(0, traced)
		for _, c := range e.clients {
			wg.Add(1)
			go func(c *benchClient) {
				defer wg.Done()
				for _, s := range c.subs {
					e.poll(c, s, r, start, traced)
				}
			}(c)
		}
		wg.Wait()
	}
}

// mutate evolves source i by one step, noting the restaurants it creates,
// and returns when Mutate returns: the poll latency clock starts there,
// so generator time is excluded.
func (e *episode) mutate(i int, traced bool) time.Time {
	ev, exp := e.evs[i], e.expected[i]
	_ = e.srcs[i].Mutate(func(db *oem.Database) error {
		for _, op := range ev.Step(e.spec.stepOps) {
			if a, ok := op.(change.AddArc); ok && a.Parent == db.Root() && a.Label == "restaurant" {
				for _, n := range db.OutLabeled(a.Child, "name") {
					v, _ := db.Value(n.Child)
					exp[v.AsString()] = true
				}
			}
		}
		if traced {
			e.packaged[i].Store(int64(closureSize(db)))
		}
		return nil
	})
	return time.Now()
}

// closureSize counts the nodes the polling query select guide.restaurant
// packages: every restaurant's subobject closure plus the package root.
func closureSize(db *oem.Database) int {
	seen := make(map[oem.NodeID]bool)
	var walk func(n oem.NodeID)
	walk = func(n oem.NodeID) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, a := range db.Out(n) {
			walk(a.Child)
		}
	}
	for _, a := range db.OutLabeled(db.Root(), "restaurant") {
		walk(a.Child)
	}
	return len(seen) + 1
}

// poll runs one timed poll of subscription s in round r. Untraced, it is
// the wire round trip qsc poll makes. Traced, it calls the service
// directly with a trace attached; the notification still travels to the
// owning client over TCP, and the operation ends at its receipt.
func (e *episode) poll(c *benchClient, s sub, r int, start time.Time, traced bool) {
	at := pollTime(r)
	c.attempted++
	if !traced {
		if err := c.rc.Poll(s.name, at.String()); err != nil {
			c.errs = append(c.errs, fmt.Sprintf("poll %s at %s: %v", s.name, at, err))
			return
		}
		c.lat = append(c.lat, ms(time.Since(start)))
		return
	}
	began := time.Now()
	tr := obs.NewTrace(s.name)
	sp := tr.StartSpan("poll")
	n, err := e.srv.Service().PollContext(obs.WithTrace(context.Background(), tr), s.name, at)
	sp.End()
	end := time.Now()
	if err != nil {
		c.errs = append(c.errs, fmt.Sprintf("poll %s at %s: %v", s.name, at, err))
		return
	}
	var got time.Time
	if n != nil {
		var ok bool
		if got, ok = c.awaitReceipt(s.name, at); !ok {
			c.errs = append(c.errs, fmt.Sprintf("notification %s at %s never arrived", s.name, at))
			return
		}
		if got.After(end) {
			end = got
		}
	}
	c.lat = append(c.lat, ms(end.Sub(start)))
	c.agg.addPoll(tr.Spans(), end.Sub(began), int(e.packaged[s.src].Load()))
}

// pings times the request leg of the wire, which traced polls skip:
// each client round-trips Client.Ping pingsPerClient times.
func (e *episode) pings() {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *benchClient) {
			defer wg.Done()
			tr := obs.NewTrace("ping")
			for i := 0; i < pingsPerClient; i++ {
				sp := tr.StartSpan("ping")
				err := c.ping.Ping()
				sp.End()
				if err != nil {
					c.errs = append(c.errs, fmt.Sprintf("ping: %v", err))
					return
				}
			}
			c.agg.addPing(tr.Spans())
		}(c)
	}
	wg.Wait()
}

// check waits for every notification and verifies the episode's outputs:
// each restaurant a source held reaches each creation subscription on it
// exactly once, and the follower applied exactly the primary's oplog.
// Each mismatch counts as one failure.
func (e *episode) check(rep *report) {
	complete := func() bool {
		for _, c := range e.clients {
			c.mu.Lock()
			for _, s := range c.subs {
				if !s.cre {
					continue
				}
				for name := range e.expected[s.src] {
					if c.seen[s.name][name] == 0 {
						c.mu.Unlock()
						return false
					}
				}
			}
			c.mu.Unlock()
		}
		return true
	}
	_ = waitFor(complete)
	for _, c := range e.clients {
		c.mu.Lock()
		for _, s := range c.subs {
			if !s.cre {
				continue
			}
			seen := c.seen[s.name]
			for name := range e.expected[s.src] {
				if seen[name] != 1 {
					rep.fail("%s: %q notified %d times, want 1", s.name, name, seen[name])
				}
			}
			for name := range seen {
				if !e.expected[s.src][name] {
					rep.fail("%s: %q notified but never created", s.name, name)
				}
			}
		}
		c.mu.Unlock()
	}
	if e.follow != nil {
		want := e.primary.Status().Applied
		if waitFor(func() bool { return e.follow.Status().Applied == want }) != nil {
			rep.fail("follower applied seq %d, primary %d", e.follow.Status().Applied, want)
		}
	}
}

// close tears the episode down and waits for its goroutines.
func (e *episode) close() {
	for _, c := range e.clients {
		c.rc.Close()
		if c.ping != nil {
			c.ping.Close()
		}
	}
	for _, c := range e.clients {
		<-c.drained
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.replLn != nil {
		e.replLn.Close()
	}
	if e.primary != nil {
		e.primary.Close()
	}
	if e.follow != nil {
		e.follow.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// timedState wraps the follower's replication state and times each
// record it folds in: the benchmark's own span around its call into the
// program.
type timedState struct {
	repl.State
	n, ns atomic.Int64
}

// Apply implements repl.State.
func (s *timedState) Apply(name string, data []byte) error {
	start := time.Now()
	err := s.State.Apply(name, data)
	s.ns.Add(int64(time.Since(start)))
	s.n.Add(1)
	return err
}

func (s *timedState) reset() {
	if s != nil {
		s.n.Store(0)
		s.ns.Store(0)
	}
}
