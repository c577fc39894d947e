package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"opera/internal/cluster/ring"
	"opera/internal/obs/logx"
	"opera/internal/service/inject"
)

// ErrHandedOff is the terminal error of a queued job that a draining
// shard sent to its ring peer instead of solving. The JobStatus
// carries HandedOff plus the peer's URL, so a waiter can follow the
// job — or simply resubmit the same request anywhere on the ring and
// coalesce onto (or cache-hit) the peer's run.
var ErrHandedOff = errors.New("service: job handed off to a ring peer during drain")

// stateHandedOff is the journal end-state of a handed-off job: the
// peer owns it now, so a restart of this shard must not replay it.
const stateHandedOff = "handed-off"

// defaultPeekTimeout bounds one peer cache lookup. Peeks sit on the
// submission path, so the budget is deliberately tight: a slow peer
// must degrade to a local solve, never to a slow submit.
const defaultPeekTimeout = 150 * time.Millisecond

// handoffTimeout bounds one drain-handoff POST to a peer.
const handoffTimeout = 5 * time.Second

// peerState is the immutable peer view installed by SetPeers: the
// consistent-hash ring over the peer URLs (self excluded) that orders
// cache peeks and picks drain-handoff owners.
type peerState struct {
	ring *ring.Ring
	self string
}

// SetPeers installs the shard's peer list: the other shards' base URLs
// (e.g. "http://10.0.0.2:9130"). self, when non-empty, names this
// shard's own URL and is filtered out so a misconfigured symmetric
// peer list cannot make a shard peek or hand off to itself. Peer mode
// is live for every submission after the call; an empty list disables
// it. Safe to call concurrently with submissions.
func (s *Server) SetPeers(self string, peers []string) {
	if self != "" {
		self = normalizePeerURL(self)
	}
	var rest []string
	all := map[string]bool{}
	if self != "" {
		all[self] = true
	}
	for _, p := range peers {
		if p == "" {
			continue
		}
		p = normalizePeerURL(p)
		all[p] = true
		if p != self {
			rest = append(rest, p)
		}
	}
	if len(rest) == 0 {
		s.peers.Store(nil)
		s.shardName.Store(nil)
		return
	}
	s.peers.Store(&peerState{ring: ring.New(rest, 0), self: self})
	// Derive this shard's cluster self-name the same way the router
	// names its members: the full shard set (peers ∪ self), normalized
	// and sorted, indexed as s0, s1, ... — so shard-stamped telemetry
	// (span exports, flight entries) joins router logs with no lookup
	// table. Requires self so we know which member we are.
	if self != "" {
		members := make([]string, 0, len(all))
		for m := range all {
			members = append(members, m)
		}
		sort.Strings(members)
		for i, m := range members {
			if m == self {
				name := fmt.Sprintf("s%d", i)
				s.shardName.Store(&name)
				break
			}
		}
	}
}

// ShardName returns this shard's cluster self-name ("s0", "s1", ...)
// derived from the sorted peer set, or "" when the server runs
// standalone (or SetPeers was given no self URL).
func (s *Server) ShardName() string {
	if p := s.shardName.Load(); p != nil {
		return *p
	}
	return ""
}

// Peers returns the active peer URLs (nil when peer mode is off).
func (s *Server) Peers() []string {
	ps := s.peers.Load()
	if ps == nil {
		return nil
	}
	return ps.ring.Members()
}

func normalizePeerURL(u string) string {
	if !bytes.Contains([]byte(u), []byte("://")) {
		u = "http://" + u
	}
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// peerHTTPClient returns the transport for peer peeks and handoffs
// (set once in New — this path runs concurrently with submissions).
func (s *Server) peerHTTPClient() *http.Client {
	return s.peerHTTP
}

// peekPeers asks the ring peers for key's cached result bytes, most
// likely holder first, each under the peek timeout. The contract is
// miss-tolerant by construction: any failure — timeout, refused
// connection, 404, injected fault — is a miss, and the caller solves
// locally. A hit returns the peer's stored bytes verbatim, so a replay
// served through this shard is byte-identical to one served by the
// peer that solved.
func (s *Server) peekPeers(key string) ([]byte, string) {
	ps := s.peers.Load()
	if ps == nil {
		return nil, ""
	}
	timeout := s.opts.PeekTimeout
	if timeout <= 0 {
		timeout = defaultPeekTimeout
	}
	for _, peer := range ps.ring.Sequence(key) {
		if inject.PeekTimeout() {
			// Injected peer timeout: the peek budget elapses with no
			// answer. Strictly a miss.
			s.mPeekErrors.Inc()
			continue
		}
		data, err := s.peekOne(peer, key, timeout)
		switch {
		case err == nil && data != nil:
			s.mPeekHits.Inc()
			return data, peer
		case err == nil:
			s.mPeekMisses.Inc()
		default:
			s.mPeekErrors.Inc()
		}
	}
	return nil, ""
}

// peekOne fetches /cache/{key} from one peer. (nil, nil) is a clean
// miss (404); an error is any other failure.
func (s *Server) peekOne(peer, key string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/cache/"+key, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.peerHTTPClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("peer peek: unexpected status " + resp.Status)
	}
	// Bound the read by the local cache budget: bytes the local cache
	// could never hold are not worth pulling across the wire.
	limit := s.opts.CacheBytes
	if limit <= 0 {
		limit = 1 << 30
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, errors.New("peer peek: result exceeds local cache budget")
	}
	return data, nil
}

// handoffQueued sends the drained queue to the ring: each job is
// POSTed (same request, same trace ID — the trace survives the hop) to
// its key's owner among the surviving peers, falling through the ring
// sequence on refusal. A job no peer accepts is pushed back onto the
// local queue so the drain solves it before exit — handing off is an
// optimization of drain, never a way to lose work.
func (s *Server) handoffQueued(queued []*job) {
	for _, j := range queued {
		s.handoffJob(j)
	}
}

func (s *Server) handoffJob(j *job) {
	ps := s.peers.Load()
	sentTo := ""
	if ps != nil && !inject.HandoffCrash() {
		for _, peer := range ps.ring.Sequence(j.key) {
			if err := s.postToPeer(peer, j.req); err != nil {
				if j.log != nil {
					j.event("job.handoff_try",
						slog.String(logx.KeyPeer, peer),
						slog.String(logx.KeyError, err.Error()))
				}
				continue
			}
			sentTo = peer
			break
		}
	}
	if sentTo == "" {
		// No peer accepted (or the injected crash fired before the
		// send): requeue locally, exactly as if peer mode were off.
		s.mHandoffFails.Inc()
		s.mu.Lock()
		if j.req.Priority == PriorityBatch {
			s.batch = append(s.batch, j)
		} else {
			s.interactive = append(s.interactive, j)
		}
		s.mQueueDepth.Set(float64(len(s.interactive) + len(s.batch)))
		s.cond.Signal()
		s.mu.Unlock()
		return
	}
	s.mHandoffs.Inc()
	s.mu.Lock()
	j.handedOff = true
	j.peer = sentTo
	j.state = StateCanceled
	j.err = ErrHandedOff
	j.finished = time.Now()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	if j.cancelCause != nil {
		j.cancelCause(errCauseDrain)
	}
	if j.stopTimer != nil {
		j.stopTimer()
	}
	if s.journal != nil {
		s.journal.record(journalRecord{Event: journalEnd, ID: j.id, State: stateHandedOff})
	}
	s.mu.Unlock()
	if j.log != nil {
		j.event("job.handoff",
			slog.String(logx.KeyPeer, sentTo),
			slog.String(logx.KeyKey, j.key))
	}
	// The job never ran here; emit its terminal telemetry directly
	// (finishJob never sees it), like a queued-job cancel, then
	// release its waiters.
	s.recordTerminal(j, StateCanceled, ErrHandedOff, false)
	close(j.done)
}

// postToPeer submits req to one peer's /v1/jobs. Accepted (202), a
// cache hit or coalesce (200) all count as a successful handoff — the
// ring now owns the work either way.
func (s *Server) postToPeer(peer string, req Request) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), handoffTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.TraceID != "" {
		hreq.Header.Set(TraceIDHeader, req.TraceID)
	}
	resp, err := s.peerHTTPClient().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return errors.New("peer handoff: status " + resp.Status)
	}
	return nil
}

// peersPtr is the atomic slot type for the Server struct (kept here so
// server.go stays focused on the queue lifecycle).
type peersPtr = atomic.Pointer[peerState]
