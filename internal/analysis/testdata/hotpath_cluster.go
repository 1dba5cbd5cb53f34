// Seeded-violation fixture for the hot-path-alloc analyzer (cluster
// scope). Loaded with import path "repro/internal/cluster": the rule
// lints the Router.forward method — the proxy's per-frame backend
// round trip — and nothing else in the package (the reply write is
// serve's writeReply, linted in the serve scope).
package cluster

import "fmt"

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
