package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"

	"privtree/internal/dataset"
	"privtree/internal/obs"
	"privtree/internal/parallel"
	"privtree/internal/transform"
)

// OutputSchema returns the schema of the transformed stream: attribute
// and class names are unchanged, but categorical attributes get opaque
// "k0", "k1", ... category names — the real names would leak which
// permuted code means what. The returned schema does not alias in; it
// is safe to hand to a Sink while in keeps growing.
func OutputSchema(key *transform.Key, in *dataset.Schema) (*dataset.Schema, error) {
	if len(key.Attrs) != in.NumAttrs() {
		return nil, &StageError{
			Stage: StageApply,
			Err:   fmt.Errorf("key has %d attributes, schema has %d: %w", len(key.Attrs), in.NumAttrs(), transform.ErrKeyMismatch),
		}
	}
	out := in.Clone()
	for a, ak := range key.Attrs {
		if !ak.Categorical {
			continue
		}
		names := in.Categorical[a]
		opaque := make([]string, len(names))
		for c := range opaque {
			opaque[c] = fmt.Sprintf("k%d", c)
		}
		out.Categorical[a] = opaque
	}
	return out, nil
}

// ApplyStream is the block-wise apply stage: it drains src, transforms
// every attribute value of each block under key and writes the
// transformed blocks to sink. Each block fans out over up to workers
// contiguous row ranges, and a range applies every attribute to its
// rows. chunk bounds the tuples per block (<= 0 for the source's
// default). Values are identical to Apply on the materialized data set
// at any chunk size and worker count: the per-value transform is pure,
// so neither blocking nor fan-out can reorder or change anything.
//
// ctx bounds the stream's lifetime: cancellation (a disconnected HTTP
// client, a daemon shutting down) is observed between blocks, so a
// long stream returns promptly with a StageError wrapping ctx's error
// (errors.Is(err, context.Canceled) / context.DeadlineExceeded) instead
// of draining the source to EOF.
//
// Sinks that carry category names should be constructed against
// OutputSchema(key, src.Schema()).
func ApplyStream(ctx context.Context, key *transform.Key, src dataset.Source, sink dataset.Sink, chunk, workers int) error {
	sch := src.Schema()
	if len(key.Attrs) != sch.NumAttrs() {
		return &StageError{
			Stage: StageApply,
			Err:   fmt.Errorf("key has %d attributes, source has %d: %w", len(key.Attrs), sch.NumAttrs(), transform.ErrKeyMismatch),
		}
	}
	workers = parallel.ResolveWorkers(workers)
	sp := obs.StartSpan("encode/apply_stream")
	defer sp.End()
	// Live progress: rows/s, chunk index and ETA as gauges (scrapeable
	// from the obs server's /metrics mid-run) plus the optional ticker.
	// StartProgress returns nil when nothing observes the run, so the
	// flag-less path neither reads the clock nor starts a goroutine.
	total := int64(-1)
	if t, ok := src.(interface{ Total() int }); ok {
		total = int64(t.Total())
	}
	pg := obs.StartProgress("encode/apply_stream", total)
	defer pg.Close()
	// The per-range closure is hoisted out of the loop and reads the
	// current block through blk, so a long stream does not allocate a
	// fresh closure per chunk; a one-range block skips the pool.
	var (
		blk   *dataset.Block
		parts int
	)
	applyRange := func(r int) error {
		lo, hi := parallel.Part(blk.NumRows(), parts, r)
		for a, col := range blk.Cols {
			key.Attrs[a].ApplyColumn(col[lo:hi], col[lo:hi])
		}
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return &StageError{Stage: StageApply, Err: fmt.Errorf("stream aborted: %w", err)}
		}
		var err error
		blk, err = src.Next(chunk)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return &StageError{Stage: StageApply, Err: err}
		}
		obs.Add("pipeline.stream.blocks", 1)
		obs.Add("pipeline.stream.rows", int64(blk.NumRows()))
		obs.Observe("pipeline.stream.block_rows", float64(blk.NumRows()))
		parts = parallel.Parts(blk.NumRows(), workers)
		if parts == 1 {
			_ = applyRange(0) // always nil; signature shared with the fan-out
		} else if err := parallel.ForEach(ctx, parts, parts, applyRange); err != nil {
			return &StageError{Stage: StageApply, Err: err}
		}
		// The sink turns the block into its bytes (a CSVSink formats
		// row ranges on its own Workers) and writes them.
		wsp := sp.Child("io/format_write")
		err = sink.Write(blk)
		wsp.End()
		if err != nil {
			return &StageError{Stage: StageApply, Err: err}
		}
		pg.Step(blk.NumRows())
	}
	if err := sink.Flush(); err != nil {
		return &StageError{Stage: StageApply, Err: err}
	}
	return nil
}
