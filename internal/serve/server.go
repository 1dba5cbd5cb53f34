package serve

import (
	"context"
	"net"
	"net/http"

	"repro/internal/trace"
)

// Server answers VP1 connections from an Engine: the shared FrontEnd
// runs the connections, and dispatch answers each frame.
type Server struct {
	engine *Engine
	fe     *FrontEnd
}

// NewServer wraps engine in a server. The engine's lifecycle belongs
// to the server from here on: Shutdown/Close close it.
func NewServer(engine *Engine, cfg ServerConfig) *Server {
	s := &Server{engine: engine}
	s.fe = NewFrontEnd(cfg, s.handler)
	return s
}

// Engine returns the wrapped engine (for stats handlers and tests).
func (s *Server) Engine() *Engine { return s.engine }

// Serve accepts connections on ln until Shutdown or Close. It always
// returns a non-nil error; after a clean shutdown the error is
// net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error { return s.fe.Serve(ln) }

// connScratch is one connection's reusable decode and engine buffers:
// the decoded batch and the prediction output live here (the request
// and response frames are the FrontEnd's), so a steady-state
// PredictBatch/RunBatch frame allocates nothing. Owned by the
// connection goroutine; each buffer is valid until the next frame.
type connScratch struct {
	events []trace.Event // decoded UpdateBatch/RunBatch events
	pcs    []uint32      // decoded PredictBatch PCs
	values []uint32      // engine prediction output
}

// handler makes one connection's FrameHandler around its own scratch.
func (s *Server) handler() FrameHandler {
	sc := &connScratch{}
	return func(req Frame, buf []byte) Frame { return s.dispatch(req, buf, sc) }
}

// dispatch decodes one request, runs it on the engine, and encodes
// the response frame in place in buf's storage. Malformed payloads
// produce StatusBadRequest rather than killing the connection: the
// frame boundary is intact, so the stream remains synchronized.
func (s *Server) dispatch(req Frame, buf []byte, sc *connScratch) Frame {
	op, payload := req.Op(), req.Payload()
	resp := beginFrame(buf, op|respFlag)
	switch op {
	case OpPredictBatch:
		session, pcs, err := decodePredictReq(payload, sc.pcs)
		if err != nil {
			resp = appendPredictResp(resp, StatusBadRequest, nil)
			break
		}
		sc.pcs = pcs
		values, st := s.engine.PredictBatchAppend(session, pcs, sc.values)
		if values != nil {
			sc.values = values
		}
		resp = appendPredictResp(resp, st, values)
	case OpUpdateBatch:
		session, events, err := decodeEventReq(payload, sc.events)
		if err != nil {
			resp = appendStatusResp(resp, StatusBadRequest)
			break
		}
		sc.events = events
		resp = appendStatusResp(resp, s.engine.UpdateBatch(session, events))
	case OpRunBatch:
		session, events, err := decodeEventReq(payload, sc.events)
		if err != nil {
			resp = appendRunResp(resp, StatusBadRequest, 0)
			break
		}
		sc.events = events
		hits, st := s.engine.RunBatch(session, events)
		resp = appendRunResp(resp, st, hits)
	case OpStats:
		resp = appendStatsResp(resp, StatusOK, s.engine.StatsJSON())
	case OpResetSession:
		session, err := decodeSessionReq(payload)
		if err != nil {
			resp = appendStatusResp(resp, StatusBadRequest)
			break
		}
		resp = appendStatusResp(resp, s.engine.ResetSession(session))
	case OpSnapshotSession:
		session, err := decodeSessionReq(payload)
		if err != nil {
			resp = appendSnapshotResp(resp, StatusBadRequest, nil)
			break
		}
		blob, st := s.engine.SnapshotSession(session)
		resp = appendSnapshotResp(resp, st, blob)
	case OpRestoreSession:
		session, blob, err := decodeRestoreReq(payload)
		if err != nil {
			resp = appendStatusResp(resp, StatusBadRequest)
			break
		}
		resp = appendStatusResp(resp, s.engine.RestoreSession(session, blob))
	default:
		resp = appendStatusResp(resp, StatusBadRequest)
	}
	return endFrame(resp)
}

// Shutdown drains the server gracefully: stop accepting, keep serving
// connected clients until they disconnect or ctx expires, then force
// the stragglers closed and stop the engine.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.fe.Shutdown(ctx)
	s.engine.Close()
	return err
}

// Close shuts the server down immediately: connections are closed
// without waiting for them to go idle. It always returns nil.
func (s *Server) Close() error {
	s.fe.Close()
	s.engine.Close()
	return nil
}

// StatsHandler serves the engine's stats snapshot as JSON — an
// expvar-style endpoint for the optional HTTP listener.
func StatsHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(e.StatsJSON())
	})
}
