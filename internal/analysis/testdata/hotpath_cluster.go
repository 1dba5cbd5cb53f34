// Seeded-violation fixture for the hot-path-alloc analyzer (cluster
// scope). Loaded with import path "repro/internal/cluster": the rule
// lints the Router.forward and Router.writeReply methods — the proxy's
// per-frame backend round trip and its reply write — and nothing else
// in the package.
package cluster

import (
	"fmt"
	"io"
)

type Router struct {
	addrs []string
}

// forward is the per-frame proxy hot path: in scope.
func (r *Router) forward(addr string, op byte, payload []byte) ([]byte, error) {
	if len(r.addrs) == 0 {
		return nil, fmt.Errorf("forward %#x to %s: no backends", op, addr) // want hot-path-alloc
	}
	defer fmt.Println(addr) // want hot-path-alloc
	return payload, nil
}

// writeReply writes every reply frame: in scope.
func (r *Router) writeReply(w io.Writer, f []byte) error {
	if len(f) == 0 {
		return fmt.Errorf("empty reply to %v", r.addrs) // want hot-path-alloc
	}
	_, err := w.Write(f)
	return err
}

// dispatch holds a per-session read lock for the duration of the
// forward, so its defer is legitimate: out of scope.
func (r *Router) dispatch(op byte, payload []byte) []byte {
	defer fmt.Println(op)
	resp, err := r.forward("backend", op, payload)
	if err != nil {
		return nil
	}
	return resp
}
