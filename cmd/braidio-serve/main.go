// Command braidio-serve is the online multi-tenant planning daemon:
// simulated devices register over HTTP/JSON, stream battery and link
// updates, and read back Eq. (1) mode-fraction plans. Planning is
// epoch-batched and dirty-set scheduled — each epoch re-solves only the
// members whose inputs drifted past tolerance — with bounded admission
// queues, load shedding, Prometheus metrics at /metrics, and an
// optional journal directory from which a captured session replays
// bit-identically and a restart recovers.
//
// Usage:
//
//	braidio-serve -addr :8080                      # run the daemon
//	braidio-serve -journal-dir journal.d           # ... durable: snapshots, segments, crash recovery
//	braidio-serve -replay journal.d                # verify a capture (journal dir or one file)
//	braidio-serve -load -n 100000 -epochs 5        # self-contained load run
//	braidio-serve -load -n 5000 -epochs 3 -check   # CI smoke (exit != 0 on failure)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"braidio/internal/obs"
	"braidio/internal/serve"
	"braidio/internal/units"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (load mode: target daemon; empty = in-process)")
	epoch := flag.Duration("epoch", 500*time.Millisecond, "epoch interval (batching window for re-plans)")
	ratioTol := flag.Float64("ratio-tol", 0.05, "battery-ratio drift tolerance before a member is re-planned")
	distTol := flag.Float64("dist-tol", 0.05, "link-distance drift tolerance before a member is re-planned")
	window := windowFlag(64)
	flag.Var(&window, "window", "block-schedule window length (frame slots per plan, at most 1048576)")
	hubJ := flag.Float64("hub-j", 10, "hub-side energy budget E1 in joules")
	queueCap := flag.Int("queue-cap", 1<<16, "admission queue bound; overflow is shed with 503")
	workers := flag.Int("workers", 0, "planning pool size (0 = GOMAXPROCS; plans identical at any value)")
	shards := flag.Int("shards", 0, "member-state shards, rounded up to a power of two (0 = GOMAXPROCS; plans identical at any value)")
	journalDir := flag.String("journal-dir", "", "durable segmented journal directory; restart recovers state from it")
	snapshotEvery := flag.Uint64("snapshot-every", 16, "journal-dir mode: epochs between snapshots (and segment rotations)")
	syncPolicy := flag.String("sync", "epoch", "journal fsync policy: none|epoch|always")
	retain := flag.Int("retain", 0, "journal-dir mode: pre-snapshot segments to keep past compaction")
	failStop := flag.Bool("journal-fail-stop", true, "shed admissions with 503 once the journal has failed")
	replayPath := flag.String("replay", "", "replay a captured journal (file or directory), verify digests, and exit")
	load := flag.Bool("load", false, "run the load generator instead of the daemon")
	target := flag.String("target", "", "load mode: base URL of a running daemon (empty = self-contained in-process server)")
	loadN := flag.Int("n", 100_000, "load mode: members to register")
	loadEpochs := flag.Int("epochs", 5, "load mode: update+epoch rounds after registration")
	loadDrift := flag.Float64("drift", 0.10, "load mode: fraction of members drifting past tolerance per round")
	loadSeed := flag.Uint64("seed", 42, "load mode: generator seed")
	check := flag.Bool("check", false, "load mode: verify dirty-set accounting via /metrics and exit non-zero on failure")
	flag.Parse()

	cfg := serve.Config{
		Workers:           *workers,
		Shards:            *shards,
		QueueCap:          *queueCap,
		RatioTolerance:    *ratioTol,
		DistanceTolerance: *distTol,
		Window:            int(window),
		HubEnergy:         units.Joule(*hubJ),
	}
	sync, err := serve.ParseSyncPolicy(*syncPolicy)
	if err != nil {
		fail(err)
	}
	js := journalSetup{
		dir:  *journalDir,
		opts: serve.JournalOptions{Sync: sync, SnapshotEvery: *snapshotEvery, Retain: *retain},
	}
	if js.dir != "" {
		cfg.JournalFailStop = *failStop
	}

	switch {
	case *replayPath != "":
		if err := runReplay(*replayPath); err != nil {
			fail(err)
		}
	case *load:
		if err := runLoad(loadConfig{
			target: *target, cfg: cfg, n: *loadN, epochs: *loadEpochs,
			drift: *loadDrift, seed: *loadSeed, check: *check,
		}); err != nil {
			fail(err)
		}
	default:
		if err := runDaemon(*addr, *epoch, cfg, js); err != nil {
			fail(err)
		}
	}
}

// maxWindow is the longest block-schedule window the daemon accepts:
// the bound serve's journal reader enforces on a journal head, so every
// journal the daemon writes replays. TestWindowFlag pins the two equal.
const maxWindow = 1 << 20

// windowFlag is the -window flag: an int, like flag.Int, that rejects
// windows longer than maxWindow.
type windowFlag int

// String implements flag.Value.
func (w *windowFlag) String() string { return strconv.Itoa(int(*w)) }

// Set implements flag.Value, parsing s as flag.Int does.
func (w *windowFlag) Set(s string) error {
	n, err := strconv.ParseInt(s, 0, strconv.IntSize)
	if err != nil {
		return err
	}
	if n > maxWindow {
		return fmt.Errorf("window %d exceeds %d slots", n, maxWindow)
	}
	*w = windowFlag(n)
	return nil
}

// journalSetup carries the daemon's durability flags: the segmented
// recovery directory (dir; empty journals nothing) and its options.
type journalSetup struct {
	dir  string
	opts serve.JournalOptions
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "braidio-serve:", err)
	os.Exit(1)
}

// runDaemon serves until SIGINT/SIGTERM, then shuts down gracefully:
// stop the epoch ticker, run one final flush epoch so every admitted
// operation lands in a plan (and the journal), close the journal, drain
// in-flight HTTP. With -journal-dir it first recovers engine state from
// the newest snapshot plus the journal tail.
func runDaemon(addr string, epochEvery time.Duration, cfg serve.Config, js journalSetup) error {
	// A full recorder (initialized histogram bounds), so /metrics
	// exports live latency histograms, not just counters.
	cfg.Rec = obs.NewRecorder()

	var (
		eng     *serve.Engine
		journal *serve.Journal
	)
	if js.dir == "" {
		eng = serve.NewEngine(cfg)
	} else {
		var st serve.RecoveryStats
		var err error
		eng, journal, st, err = serve.Open(js.dir, cfg, js.opts)
		if err != nil {
			return err
		}
		if st.Segments > 0 {
			fmt.Printf("braidio-serve: recovered from %s — segment %d, snapshot epoch %d (%d members), replayed %d ops / %d epochs (%d digests matched), %d torn records, resumed at epoch %d\n",
				js.dir, st.BaseSegment, st.SnapshotEpoch, st.SnapshotMembers,
				st.Ops, st.Epochs, st.Matched, st.TornRecords, st.Resumed)
			if len(st.Digests) > 0 {
				fmt.Printf("braidio-serve: recovery digest %s\n", st.Digests[len(st.Digests)-1])
			}
		} else {
			fmt.Printf("braidio-serve: starting fresh journal directory %s\n", js.dir)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           (&serve.Server{Engine: eng, EpochInterval: epochEvery}).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Epoch ticker: the single goroutine allowed to call RunEpoch.
	// Ticker.Stop does not close the channel, so exit rides a quit
	// channel instead of the range ending.
	tick := time.NewTicker(epochEvery)
	quit := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for {
			select {
			case <-tick.C:
				if _, err := eng.RunEpoch(); err != nil {
					fmt.Fprintln(os.Stderr, "braidio-serve: epoch:", err)
				}
			case <-quit:
				return
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("braidio-serve: listening on %s, epoch every %v\n", ln.Addr(), epochEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("braidio-serve: %v, shutting down\n", s)
	case err := <-errc:
		tick.Stop()
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	tick.Stop()
	close(quit)
	<-tickDone
	if _, err := eng.RunEpoch(); err != nil { // flush epoch
		fmt.Fprintln(os.Stderr, "braidio-serve: flush epoch:", err)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	st := eng.Stats()
	fmt.Printf("braidio-serve: drained — %d members, epoch %d\n", st.Members, st.Epoch)
	return nil
}

// runReplay verifies a captured journal end to end: a segmented
// journal directory through VerifyDir (snapshot restore + tail digest
// verification), a single file — one segment, or a config-headed
// capture written before journal directories — through Replay. Both
// run the same journal reader and report the same counts.
func runReplay(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	start := time.Now()
	if info.IsDir() {
		st, err := serve.VerifyDir(path)
		if err != nil {
			return err
		}
		fmt.Printf("replay ok: segment %d, snapshot epoch %d (%d members), %d tail ops, %d epochs (%d digests matched bit-identically), %d torn records, in %v\n",
			st.BaseSegment, st.SnapshotEpoch, st.SnapshotMembers,
			st.Ops, st.Epochs, st.Matched, st.TornRecords, time.Since(start).Round(time.Millisecond))
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := serve.Replay(f)
	if err != nil {
		return err
	}
	if st.Matched == 0 {
		return errors.New("replay: journal contains no completed epochs")
	}
	fmt.Printf("replay ok: %d ops, %d epochs (%d digests matched bit-identically), %d torn records, in %v\n",
		st.Ops, st.Epochs, st.Matched, st.TornRecords, time.Since(start).Round(time.Millisecond))
	return nil
}
