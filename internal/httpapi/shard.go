package httpapi

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"miras/internal/obs"
)

// tombstoneCap bounds each shard's memory of evicted session ids. A ring
// this size remembers the last 1024 evictions per shard — enough that any
// client still holding an evicted id sees 410 session_expired rather than
// 404, without letting a churny workload grow the set forever.
const tombstoneCap = 1024

// shard is one partition of the session registry: its own map, its own
// lock, its own occupancy gauge, its own tombstone ring. A session id's
// shard is fixed by consistent hashing, so two requests contend on a shard
// lock only when their sessions hash together.
type shard struct {
	idx       int
	mu        sync.RWMutex
	sessions  map[string]*session
	tombs     tombstones
	liveGauge *obs.Gauge
}

func newShard(idx int, reg *obs.Registry) *shard {
	return &shard{
		idx:      idx,
		sessions: make(map[string]*session),
		tombs:    tombstones{set: make(map[string]struct{}, tombstoneCap)},
		liveGauge: reg.Gauge("miras_shard_sessions",
			"Live sessions, by in-process shard.", "shard", strconv.Itoa(idx)),
	}
}

// tombstones is a bounded FIFO memory of evicted session ids, guarded by
// the owning shard's lock.
type tombstones struct {
	ring []string
	next int
	set  map[string]struct{}
}

func (t *tombstones) add(id string) {
	if _, ok := t.set[id]; ok {
		return
	}
	if len(t.ring) < tombstoneCap {
		t.ring = append(t.ring, id)
	} else {
		delete(t.set, t.ring[t.next])
		t.ring[t.next] = id
		t.next = (t.next + 1) % tombstoneCap
	}
	t.set[id] = struct{}{}
}

func (t *tombstones) has(id string) bool {
	_, ok := t.set[id]
	return ok
}

// remove forgets id, so a rehydrated (or re-created) session stops
// answering 410. The ring slot is left in place and simply misses the set
// when it is eventually overwritten.
func (t *tombstones) remove(id string) {
	delete(t.set, id)
}

// shardFor returns the in-process shard owning id.
func (s *Server) shardFor(id string) *shard {
	return s.shards[s.localRing.OwnerIndex(id)]
}

// mintID draws the next session id from the shared sequence. In topology
// mode, ids the topology assigns to other processes are skipped, so every
// process walking the same sequence mints from disjoint namespaces without
// coordination.
func (s *Server) mintID() string {
	for {
		id := "s" + strconv.FormatInt(s.nextID.Add(1), 10)
		if s.topo != nil && s.topo.ring.Owner(id) != s.topo.self {
			continue
		}
		return id
	}
}

// admit is the one way a session enters the registry; create and
// rehydrate both call it (restore rebuilds a live session in place with the
// same build and install steps). It reserves a slot against the global
// bound — an atomic reserve-then-rollback, so admits on different shards
// never share a lock — mints an id when none is given, registers the
// session's fault counters, builds the emulated system from snap, installs
// the session's fields, and inserts it into its shard under the per-shard
// bound and id uniqueness. On failure all of it is rolled back, except the
// fault series of a live session that already holds the id: the registry
// handed this admit that session's own counters.
func (s *Server) admit(id string, snap SessionSnapshot) (*session, ErrorCode, error) {
	if n := s.live.Add(1); n > int64(s.maxSessions) {
		s.live.Add(-1)
		return nil, CodeSessionLimit, fmt.Errorf("session limit %d reached", s.maxSessions)
	}
	if id == "" {
		id = s.mintID()
	}
	sh := s.shardFor(id)
	sess := &session{
		id:        id,
		shardIdx:  sh.idx,
		createdAt: s.now(),
		profiler:  s.profiler,
		faultsTotal: s.reg.Counter("miras_faults_total",
			"Fault events injected (episode activations and consumer crashes), by session.",
			"session", id),
		crashed: s.reg.Counter("miras_consumers_crashed",
			"Consumers killed by fault injection, by session.",
			"session", id),
	}
	sess.touch(sess.createdAt)
	sys, code, err := build(snap, sess.faultsTotal, sess.crashed)

	sh.mu.Lock()
	_, dup := sh.sessions[id]
	switch {
	case err != nil:
	case dup:
		code, err = CodeBadRequest, fmt.Errorf("session %q already exists", id)
	case s.maxPerShard > 0 && len(sh.sessions) >= s.maxPerShard:
		code, err = CodeSessionLimit,
			fmt.Errorf("shard %d session limit %d reached", sh.idx, s.maxPerShard)
	default:
		sess.install(sys)
		sess.wip = s.reg.Gauge("miras_env_wip",
			"Total work-in-progress (queued + in-service tasks), by session.",
			"session", id)
		sess.inflight = s.reg.Gauge("miras_cluster_inflight",
			"Live (incomplete) workflow instances, by session.",
			"session", id)
		sess.fallbackTotal = s.reg.Counter("miras_controller_fallback_total",
			"Policy failures that degraded the session to the HPA baseline, by session.",
			"session", id)
		sess.recoveredTotal = s.reg.Counter("miras_controller_recovered_total",
			"Policies restored to control after passing health probes, by session.",
			"session", id)
		sess.syncGauges()
		sh.tombs.remove(id)
		sh.sessions[id] = sess
		sh.liveGauge.Set(float64(len(sh.sessions)))
	}
	if err != nil && !dup {
		s.reg.Remove("miras_faults_total", "session", id)
		s.reg.Remove("miras_consumers_crashed", "session", id)
	}
	sh.mu.Unlock()

	if err != nil {
		s.live.Add(-1)
		sess = nil
	}
	s.sessionsLive.Set(float64(s.live.Load()))
	return sess, code, err
}

// sessionSeries names every per-session metric family; unregister removes
// the session's series from each.
var sessionSeries = []string{
	"miras_env_wip", "miras_cluster_inflight",
	"miras_faults_total", "miras_consumers_crashed",
	"miras_controller_fallback_total", "miras_controller_recovered_total",
}

// unregister is the one way a session leaves the registry; DELETE, TTL and
// idle eviction, and drain all call it. If sess is still the session
// registered under its id, it is removed from its shard, its slot against
// the global bound is freed, and its metric series and trace spans are
// dropped (the time-series ring prunes removed series on its next sample).
// A non-empty reason ("ttl", "idle", "drain") marks an eviction: the id is
// tombstoned, so it answers 410, and counted in
// miras_sessions_evicted_total; a DELETE passes "" and leaves no tombstone.
// It reports whether this call removed the session (false when a
// concurrent unregister got there first).
func (s *Server) unregister(sess *session, reason string) bool {
	sh := s.shards[sess.shardIdx]
	sh.mu.Lock()
	if sh.sessions[sess.id] != sess {
		sh.mu.Unlock()
		return false
	}
	delete(sh.sessions, sess.id)
	if reason != "" {
		sh.tombs.add(sess.id)
	}
	sh.liveGauge.Set(float64(len(sh.sessions)))
	sh.mu.Unlock()

	s.live.Add(-1)
	s.sessionsLive.Set(float64(s.live.Load()))
	for _, name := range sessionSeries {
		s.reg.Remove(name, "session", sess.id)
	}
	s.tracer.Ring().DropSession(sess.id)
	if reason != "" {
		s.reg.Counter("miras_sessions_evicted_total",
			"Sessions evicted, by shard and reason (ttl, idle, drain).",
			"shard", strconv.Itoa(sh.idx), "reason", reason).Inc()
	}
	return true
}

// each calls f on every registered session, shard by shard, until f
// returns false. A shard's sessions are collected under its read lock and
// f runs outside it, so f may lock sessions, spill and unregister them.
func (s *Server) each(f func(*session) bool) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		batch := make([]*session, 0, len(sh.sessions))
		for _, sess := range sh.sessions {
			batch = append(batch, sess)
		}
		sh.mu.RUnlock()
		for _, sess := range batch {
			if !f(sess) {
				return
			}
		}
	}
}

// lookup resolves the request's {id} to a live session, handling the full
// miss ladder (expired → tombstoned → wrong shard → not found) and
// touching the session's idle clock. The shard lock is released before
// returning; callers take the session's own lock before touching its
// state.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sh := s.shardFor(id)
	sh.mu.RLock()
	sess, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok {
		s.writeMiss(w, r, sh, id)
		return nil, false
	}
	now := s.now()
	if reason, exp := sess.expired(now); exp {
		s.evict(sess, reason)
		WriteError(w, http.StatusGone, CodeSessionExpired,
			fmt.Errorf("session %q expired", id))
		return nil, false
	}
	sess.touch(now)
	return sess, true
}

// writeMiss explains an absent id: evicted sessions answer 410 from the
// tombstone ring; in topology mode, ids owned by another shard process
// answer 421 naming the owner so routers and clients can follow; everything
// else is a plain 404. A session present locally is always served, even if
// the topology says another process owns it — rehydrated sessions must stay
// reachable wherever they were adopted. A failover re-route (FailoverHeader
// naming the id's topological owner) skips the 421: this process is the
// id's home while the owner is down, so the miss is a plain 404.
func (s *Server) writeMiss(w http.ResponseWriter, r *http.Request, sh *shard, id string) {
	sh.mu.RLock()
	tomb := sh.tombs.has(id)
	sh.mu.RUnlock()
	if tomb {
		WriteError(w, http.StatusGone, CodeSessionExpired,
			fmt.Errorf("session %q expired", id))
		return
	}
	if s.topo != nil {
		if owner := s.topo.ring.Owner(id); owner != s.topo.self &&
			owner != r.Header.Get(FailoverHeader) {
			WriteError(w, http.StatusMisdirectedRequest, CodeWrongShard,
				fmt.Errorf("session %q is owned by shard %s", id, owner))
			return
		}
	}
	WriteError(w, http.StatusNotFound, CodeSessionNotFound,
		fmt.Errorf("no session %q", id))
}

// evict retires an expired session: unregistered and tombstoned, then
// spilled when a spill store is configured (best-effort — failures
// increment miras_spill_errors_total). Reports whether this call performed
// the eviction.
func (s *Server) evict(sess *session, reason string) bool {
	if !s.unregister(sess, reason) {
		return false
	}
	if s.spillDir != "" {
		if err := s.spill(sess); err != nil {
			s.spillErrors.Inc()
		}
	}
	return true
}

// SweepExpired evicts every session past its TTL or idle bound, returning
// the number evicted. miras-server runs this on a ticker; lazy eviction in
// lookup catches the rest.
func (s *Server) SweepExpired() int {
	now := s.now()
	n := 0
	s.each(func(sess *session) bool {
		if reason, exp := sess.expired(now); exp && s.evict(sess, reason) {
			n++
		}
		return true
	})
	return n
}

// sessionByID returns the live session for id, or nil. It does not touch
// the idle clock and skips the miss ladder — registry access for DELETE,
// the rehydrate duplicate check and tests.
func (s *Server) sessionByID(id string) *session {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.sessions[id]
}
