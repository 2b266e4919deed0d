package serve

import (
	"context"
	"errors"
	"io"
	"os"
	"time"
)

// lineWriter is one subscriber's transport: an NDJSON HTTP response in
// the server, a fake in tests. WriteLine must deliver one line framed
// for the transport (a trailing newline) and must respect the deadline —
// a subscriber that cannot keep up fails the deadline and is evicted,
// which is what keeps one stalled TCP window from pinning a session
// goroutine forever. The engine itself is never waiting on any
// subscriber (Job.append is buffered), so eviction here is purely about
// reclaiming the session.
type lineWriter interface {
	WriteLine(deadline time.Time, line []byte) error
}

// errEvicted marks a session dropped for missing its write deadline.
var errEvicted = errors.New("serve: subscriber evicted: write deadline exceeded")

// pump drains a subscription into a lineWriter until the stream ends,
// the subscriber's ctx is done, or a write misses the deadline. It
// returns nil on a fully delivered stream, errEvicted on a deadline
// miss, the job's error if the campaign failed or was canceled, or
// ctx.Err() when the subscriber went away. Session accounting
// (active/evicted gauges) is recorded here so every transport shares it.
func (s *Server) pump(ctx context.Context, sub *Subscription, w lineWriter) error {
	s.metrics.ActiveSessions.Add(1)
	defer s.metrics.ActiveSessions.Add(-1)
	// A canceled subscriber context must wake a Next blocked on the
	// job's cond, not wait for the next row to notice.
	stop := context.AfterFunc(ctx, sub.Wake)
	defer stop()
	for {
		line, err := sub.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		err = w.WriteLine(time.Now().Add(s.cfg.WriteTimeout), line)
		if err == nil {
			continue
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.metrics.SessionsEvicted.Add(1)
			return errEvicted
		}
		return err
	}
}
