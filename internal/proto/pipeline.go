package proto

import (
	"context"
	"io"

	"arm2gc/internal/core"
)

// garbleStream drives the garbler's table stream to conn, directly or —
// when cfg.Pipeline is positive — with a producer goroutine garbling
// frames ahead of the writer. Both run the one garbleFrames loop, so the
// bytes on the wire are identical by construction.
func garbleStream(ctx context.Context, conn io.ReadWriter, cfg Config, sched *core.Schedule, g *core.Garbler, res *Result) error {
	if cfg.Pipeline > 0 {
		return garblePipelined(ctx, conn, cfg, sched, g, res)
	}
	return garbleFrames(ctx, cfg, sched, g, func(payload []byte) ([]byte, error) {
		if err := writeFrame(conn, msgTables, payload); err != nil {
			return nil, err
		}
		res.TableFrames++
		return payload, nil
	})
}

// garbleFrames is the garbler's cycle loop: take the next compiled cycle,
// run the kernel appending its tables to a payload buffer, and hand the
// buffer to emit at every frame boundary — the cycle-batch edge and,
// regardless of fill, the run's last cycle (halt or budget edge), where
// the evaluator expects the remainder; both sides derive identical
// boundaries from the shared public schedule. emit returns the buffer to
// fill next: the same one when writing directly, a recycled one from the
// pipeline pool when a producer goroutine runs ahead of the writer.
func garbleFrames(ctx context.Context, cfg Config, sched *core.Schedule, g *core.Garbler, emit func(payload []byte) ([]byte, error)) error {
	batch := cfg.batch()
	var payload []byte
	inBatch := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ct := sched.Next()
		payload = g.GarbleCycleTraceAppend(ct, sched.Cycle(), payload)
		inBatch++
		if inBatch == batch || sched.Done() {
			next, err := emit(payload)
			if err != nil {
				return err
			}
			payload = next[:0]
			inBatch = 0
		}
		if sched.Done() {
			return nil
		}
		g.CopyDFFs()
	}
}

// garblePipelined overlaps garbling with frame I/O: a producer goroutine
// garbles up to cfg.Pipeline frames ahead into a bounded queue while this
// goroutine streams them to conn. Buffers cycle through a pool, so the
// lookahead is allocation-bounded. The producer owns the garbler and the
// schedule until it finishes; receiving its result channel establishes the
// happens-before edge the output-decoding phase needs.
func garblePipelined(ctx context.Context, conn io.ReadWriter, cfg Config, sched *core.Schedule, g *core.Garbler, res *Result) error {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	frames := make(chan []byte, cfg.Pipeline)
	pool := make(chan []byte, cfg.Pipeline+1)
	for i := 0; i < cfg.Pipeline+1; i++ {
		pool <- nil
	}
	prodErr := make(chan error, 1)
	go func() {
		err := garbleFrames(pctx, cfg, sched, g, func(payload []byte) ([]byte, error) {
			select {
			case frames <- payload:
			case <-pctx.Done():
				return nil, pctx.Err()
			}
			select {
			case next := <-pool:
				return next, nil
			case <-pctx.Done():
				return nil, pctx.Err()
			}
		})
		close(frames)
		prodErr <- err
	}()
	var writeErr error
	for payload := range frames {
		if writeErr != nil {
			continue // drain so the cancelled producer can exit
		}
		if writeErr = writeFrame(conn, msgTables, payload); writeErr != nil {
			cancel()
			continue
		}
		res.TableFrames++
		// Recycle the frame buffer if the producer is ready for it.
		//lint:ignore determinism wire-stream-neutral: the payload above is already written; dropping the buffer only costs an allocation
		select {
		case pool <- payload:
		default:
		}
	}
	err := <-prodErr
	if writeErr != nil {
		return writeErr
	}
	return err
}
