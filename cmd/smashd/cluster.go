package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"smash/internal/cluster"
	"smash/internal/serve"
	"smash/internal/store"
	"smash/internal/stream"
)

// parseShardOf parses "-shard-of N/M" into (shard, of).
func parseShardOf(s string) (int, int, error) {
	lhs, rhs, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard-of must be N/M (e.g. 0/2), got %q", s)
	}
	shard, err1 := strconv.Atoi(lhs)
	of, err2 := strconv.Atoi(rhs)
	if err1 != nil || err2 != nil || of <= 0 || shard < 0 || shard >= of {
		return 0, 0, fmt.Errorf("-shard-of must be N/M with 0 <= N < M, got %q", s)
	}
	return shard, of, nil
}

// runIngest is the cluster ingest role: window one partition of the
// traffic with a detection-free engine and forward every sealed window
// fragment to the aggregator. Window boundaries anchor at the Unix epoch
// so all nodes agree on window ids.
func runIngest(ctx context.Context, o *options, stdin io.Reader, out io.Writer) error {
	if o.forward == "" {
		return fmt.Errorf("-role ingest requires -forward URL")
	}
	if o.push && o.listen == "" {
		return fmt.Errorf("-push needs -listen (events arrive on POST /v1/ingest)")
	}
	node := o.node
	var shardSrcWrap func(stream.Source) stream.Source
	if o.shardOf != "" {
		shard, of, err := parseShardOf(o.shardOf)
		if err != nil {
			return err
		}
		if node == "" {
			node = fmt.Sprintf("shard%d", shard)
		}
		shardSrcWrap = func(s stream.Source) stream.Source {
			return &cluster.ShardSource{Src: s, Shard: shard, Of: of}
		}
	}
	if node == "" {
		return fmt.Errorf("-role ingest requires -node (or -shard-of to derive one)")
	}

	src, closers, err := openSource(o, stdin)
	if err != nil {
		return err
	}
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	if shardSrcWrap != nil {
		src = shardSrcWrap(src)
	}

	stride := o.stride
	if stride == 0 {
		stride = o.window
	}
	// On an ingest node -state-dir holds the forwarder's durable spool:
	// fragments the aggregator could not take survive restarts there and
	// drain once it answers again.
	var spoolDir string
	if o.stateDir != "" {
		spoolDir = filepath.Join(o.stateDir, "spool")
	}
	fwd, err := cluster.NewForwarder(cluster.ForwarderConfig{
		URL:      o.forward,
		Node:     node,
		Stride:   stride,
		SpoolDir: spoolDir,
		Metrics:  o.reg,
		Logger:   o.logger.With("component", "forward", "node", node),
	})
	if err != nil {
		return err
	}
	eng, err := stream.New(stream.Config{
		Name:      "smashd",
		Window:    o.window,
		Stride:    o.stride,
		Watermark: o.watermark,
		Workers:   o.workers,
		Shards:    o.shards,
		Origin:    cluster.Epoch,
		IndexOnly: true,
		Sinks:     []stream.Sink{fwd},
		Metrics:   o.reg,
		Tracer:    o.tracer,
		Logger:    o.logger.With("component", "engine", "node", node),
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// An ingest node's ops API serves live engine counters and metrics;
	// lineage state lives at the aggregator, so its store stays empty.
	if o.listen != "" {
		st, err := store.Open(store.Config{})
		if err != nil {
			return err
		}
		pushOpts, _ := o.sourceOptions()
		shutdown, err := serveHTTP(ctx, o.listen, serve.NewHandler(serve.Config{
			Store:       st,
			EngineStats: eng.Stats,
			Push:        o.pushQueue,
			PushOptions: pushOpts,
			Sources:     o.sourceStats,
			Node:        node,
			Role:        "ingest",
			ForwarderStats: func() cluster.ForwarderStats {
				return fwd.Stats()
			},
			Started: time.Now(),
			Metrics: o.reg,
			Tracer:  o.tracer,
			Pprof:   o.pprofOn,
		}), o.logger.With("component", "http"))
		if err != nil {
			return err
		}
		defer shutdown()
	}
	defer notifySignals(ctx, cancel, o.drain(eng.Stop), o.logger)()

	enc := json.NewEncoder(out)
	for w := range eng.StartContext(ctx, src) {
		if o.jsonOut {
			if err := enc.Encode(windowRecord{
				Window: w.Seq, Start: w.Start, End: w.End, Requests: w.Requests,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(out, "forwarded window %d [%s .. %s) requests=%d\n",
			w.Seq, w.Start.Format(time.RFC3339), w.End.Format(time.RFC3339), w.Requests)
	}
	if err := eng.Err(); err != nil {
		return err
	}
	// End-of-stream marker: tells the aggregator this node is done, so
	// cluster windows can seal without waiting on the straggler policy.
	// CloseContext drains any spool first and keeps retrying through an
	// aggregator outage until a shutdown signal cancels the context.
	if err := fwd.CloseContext(ctx); err != nil {
		return err
	}

	stats, fs := eng.Stats(), fwd.Stats()
	if o.jsonOut {
		return enc.Encode(map[string]any{
			"node": node, "events": stats.Events, "late": stats.Late,
			"windows": stats.Windows, "emptyWindows": stats.EmptyWindows,
			"forwarded": fs.Forwarded, "retries": fs.Retries, "bytes": fs.Bytes,
			"spooled": fs.Spooled, "spoolDropped": fs.SpoolDropped,
		})
	}
	fmt.Fprintf(out, "node %s: ingested %d events (%d late-dropped) into %d windows (%d empty); forwarded %d fragments (%d retries, %d bytes) to %s\n",
		node, stats.Events, stats.Late, stats.Windows, stats.EmptyWindows,
		fs.Forwarded, fs.Retries, fs.Bytes, o.forward)
	if fs.Spooled > 0 || fs.SpoolPending > 0 {
		fmt.Fprintf(out, "spool: %d fragments spilled during outages (%d dropped, %d still pending)\n",
			fs.Spooled, fs.SpoolDropped, fs.SpoolPending)
	}
	return nil
}

// runAggregate is the cluster aggregator role: receive fragments from
// -expect ingest nodes on -cluster-listen, merge each cluster-wide window
// and drive detection, tracking and persistence exactly like a standalone
// run. The process exits once every expected node has sent its
// end-of-stream marker (or on the first signal, which flushes).
func runAggregate(ctx context.Context, o *options, out io.Writer) error {
	if o.clusterListen == "" {
		return fmt.Errorf("-role aggregate requires -cluster-listen ADDR")
	}
	if o.expect <= 0 {
		return fmt.Errorf("-role aggregate requires -expect N (the ingest node count)")
	}
	if o.listen != "" {
		return fmt.Errorf("the aggregator serves its ops API on -cluster-listen; drop -listen")
	}
	if len(o.paths) > 0 {
		return fmt.Errorf("the aggregator takes no trace files; ingest nodes do the reading")
	}

	st, err := openStore(o)
	if err != nil {
		return err
	}
	defer st.Close()
	if restored := st.Applied(); restored > 0 {
		o.logger.Info("restored durable state",
			"windows", restored, "walRecords", st.Stats().Replayed, "dir", o.stateDir)
	}

	// With a state dir the aggregator is crash-recoverable: every acked
	// fragment lands in stateDir/fragments before the 202, and a restart
	// replays un-sealed windows. The store's last applied window seq
	// anchors the frontier reconcile (at most one window is redone).
	var fragDir string
	applied := 0
	if o.stateDir != "" {
		fragDir = filepath.Join(o.stateDir, "fragments")
		if last := st.LastWindow(); last != nil {
			applied = last.Window + 1
		}
	}
	agg, err := cluster.NewAggregator(cluster.AggregatorConfig{
		Name:           "smashd",
		Window:         o.window,
		Stride:         o.stride,
		Expect:         o.expect,
		Straggler:      o.straggler,
		Detector:       o.detectorOptions(),
		Tracker:        st.Restore(),
		Sinks:          []stream.Sink{st},
		FragDir:        fragDir,
		FragSync:       o.walSync,
		AppliedWindows: applied,
		Metrics:        o.reg,
		Tracer:         o.tracer,
		Logger:         o.logger.With("component", "aggregator"),
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	shutdown, err := serveHTTP(ctx, o.clusterListen, serve.NewHandler(serve.Config{
		Store:      st,
		Aggregator: agg,
		Node:       o.node,
		Role:       "aggregate",
		Started:    time.Now(),
		Metrics:    o.reg,
		Tracer:     o.tracer,
		Pprof:      o.pprofOn,
	}), o.logger.With("component", "http"))
	if err != nil {
		return err
	}
	defer shutdown()
	defer notifySignals(ctx, cancel, agg.Stop, o.logger)()

	if err := printWindows(out, agg.Start(ctx), o.jsonOut, o.verbose); err != nil {
		return err
	}
	if err := agg.Err(); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}

	stats := agg.Stats()
	if o.jsonOut {
		return json.NewEncoder(out).Encode(map[string]any{
			"nodes": stats.Nodes, "fragments": stats.Fragments,
			"lateFragments": stats.LateFragments, "duplicateFragments": stats.DuplicateFragments,
			"windows": stats.Windows, "emptyWindows": stats.EmptyWindows,
			"requests": stats.Requests, "lineages": len(agg.Tracker().Lineages()),
		})
	}
	fmt.Fprintf(out, "aggregated %d fragments from %d nodes (%d late, %d duplicate) into %d windows (%d empty)\n",
		stats.Fragments, stats.Nodes, stats.LateFragments, stats.DuplicateFragments,
		stats.Windows, stats.EmptyWindows)
	fmt.Fprint(out, agg.Tracker().Summary())
	return nil
}

// runMerge is the cluster fan-in role: receive fragments from -expect
// children on -cluster-listen, merge each window (no detection, no
// tracker) and forward one combined fragment per window to the -forward
// parent, with this tier's own final marker once every child finishes. A
// -state-dir makes the tier crash-recoverable (stateDir/fragments) and
// its upstream leg durable (stateDir/spool).
func runMerge(ctx context.Context, o *options, out io.Writer) error {
	if o.clusterListen == "" {
		return fmt.Errorf("-role merge requires -cluster-listen ADDR")
	}
	if o.expect <= 0 {
		return fmt.Errorf("-role merge requires -expect N (the child node count)")
	}
	if o.forward == "" {
		return fmt.Errorf("-role merge requires -forward URL (the parent aggregator)")
	}
	if o.node == "" {
		return fmt.Errorf("-role merge requires -node (this tier's name in the parent's fragments)")
	}
	if o.listen != "" {
		return fmt.Errorf("the merge tier serves its ops API on -cluster-listen; drop -listen")
	}
	if len(o.paths) > 0 {
		return fmt.Errorf("the merge tier takes no trace files; ingest nodes do the reading")
	}

	var fragDir, spoolDir string
	if o.stateDir != "" {
		fragDir = filepath.Join(o.stateDir, "fragments")
		spoolDir = filepath.Join(o.stateDir, "spool")
	}
	m, err := cluster.NewMerger(cluster.MergerConfig{
		Window:    o.window,
		Stride:    o.stride,
		Expect:    o.expect,
		Straggler: o.straggler,
		Forward: cluster.ForwarderConfig{
			URL:      o.forward,
			Node:     o.node,
			SpoolDir: spoolDir,
			Metrics:  o.reg,
			Logger:   o.logger.With("component", "forward", "node", o.node),
		},
		FragDir:  fragDir,
		FragSync: o.walSync,
		Metrics:  o.reg,
		Logger:   o.logger.With("component", "merger"),
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The merge tier keeps no campaign state; its ops API serves cluster
	// and forward counters over an empty store.
	st, err := store.Open(store.Config{})
	if err != nil {
		return err
	}
	shutdown, err := serveHTTP(ctx, o.clusterListen, serve.NewHandler(serve.Config{
		Store:      st,
		Aggregator: m,
		Node:       o.node,
		Role:       "merge",
		ForwarderStats: func() cluster.ForwarderStats {
			return m.Forwarder().Stats()
		},
		Started: time.Now(),
		Metrics: o.reg,
		Tracer:  o.tracer,
		Pprof:   o.pprofOn,
	}), o.logger.With("component", "http"))
	if err != nil {
		return err
	}
	defer shutdown()
	defer notifySignals(ctx, cancel, m.Stop, o.logger)()

	<-m.Start(ctx)
	if err := m.Err(); err != nil {
		return err
	}
	if ctx.Err() == nil {
		if err := m.CloseUpstream(ctx); err != nil {
			return err
		}
	}

	stats, fs := m.Stats(), m.Forwarder().Stats()
	if o.jsonOut {
		return json.NewEncoder(out).Encode(map[string]any{
			"node": o.node, "nodes": stats.Nodes, "fragments": stats.Fragments,
			"lateFragments": stats.LateFragments, "duplicateFragments": stats.DuplicateFragments,
			"windows": stats.Windows, "emptyWindows": stats.EmptyWindows,
			"forwarded": fs.Forwarded, "retries": fs.Retries, "bytes": fs.Bytes,
			"spooled": fs.Spooled, "spoolDropped": fs.SpoolDropped,
		})
	}
	fmt.Fprintf(out, "merge %s: merged %d fragments from %d nodes (%d late, %d duplicate) into %d windows (%d empty); forwarded %d (%d retries, %d bytes) to %s\n",
		o.node, stats.Fragments, stats.Nodes, stats.LateFragments, stats.DuplicateFragments,
		stats.Windows, stats.EmptyWindows, fs.Forwarded, fs.Retries, fs.Bytes, o.forward)
	return nil
}
