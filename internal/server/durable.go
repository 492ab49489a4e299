// Durability wiring: every admitted delta is appended to the tenant's
// write-ahead journal before the engine runs it, a background checkpointer
// snapshots the tenant's current network config and truncates the journal
// behind it, and daemon start recovers each journaled tenant from its last
// checkpoint plus the journal tail replayed through the coalescing stream
// path. The correctness backbone is that every Delta edit is an idempotent
// blind write, so replay is prefix-idempotent: re-applying an already-applied
// record converges to the same state, which lets recovery (and the
// reconverge pass after an aborted replay stream) over-replay from any
// conservative lower bound instead of tracking an exact applied frontier.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/url"
	"os"
	"path/filepath"

	"bonsai"
	"bonsai/internal/journal"
)

// defaultCheckpointEvery is the journal tail length (records past the
// checkpoint) that triggers a background checkpoint when Config leaves
// CheckpointEvery at zero.
const defaultCheckpointEvery = 4096

// JournalStats is the /stats wire shape of a tenant's durability state.
type JournalStats struct {
	journal.Stats
	// AppliedSeq is the newest journal sequence known to be reflected in the
	// live engine; it can trail LastSeq while deltas sit in the apply path.
	AppliedSeq uint64 `json:"applied_seq"`
	// Recovery describes the recovery that produced this tenant, when the
	// daemon restarted over an existing data dir.
	Recovery *RecoveryInfo `json:"recovery,omitempty"`
}

// RecoveryInfo reports what one startup recovery found.
type RecoveryInfo struct {
	CheckpointSeq  uint64 `json:"checkpoint_seq"`
	ReplayedDeltas int    `json:"replayed_deltas"`
	// Truncated: the journal tail ended in a torn record (routine after
	// kill -9). Gap: valid records provably exist past a corrupt one, so the
	// recovered state misses history — the soundness alarm, also counted in
	// bonsaid_journal_gaps_total.
	Truncated    bool  `json:"truncated,omitempty"`
	Gap          bool  `json:"gap,omitempty"`
	DroppedBytes int64 `json:"dropped_bytes,omitempty"`
}

func (r *registry) persistent() bool { return r.cfg.DataDir != "" }

// tenantDir maps a tenant name to its data directory; names are URL-escaped
// so any openable tenant name is a safe single path component.
func (r *registry) tenantDir(name string) string {
	return filepath.Join(r.cfg.DataDir, url.PathEscape(name))
}

func (r *registry) journalOpts() journal.Options {
	return journal.Options{Sync: r.cfg.Fsync, SyncEvery: r.cfg.FsyncInterval}
}

func (r *registry) checkpointEvery() int {
	if r.cfg.CheckpointEvery != 0 {
		return r.cfg.CheckpointEvery
	}
	return defaultCheckpointEvery
}

// initPersistence gives a freshly opened tenant its journal: any history
// under the name is discarded (an explicit open defines a new ground truth)
// and a base checkpoint of the opening config is written at sequence 0, so a
// crash before the first delta still recovers the tenant.
func (r *registry) initPersistence(t *tenant) error {
	dir := r.tenantDir(t.name)
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("server: reset tenant dir: %w", err)
	}
	j, err := journal.Open(dir, r.journalOpts())
	if err != nil {
		return fmt.Errorf("server: open journal: %w", err)
	}
	payload, err := configText(t.eng)
	if err != nil {
		j.Close()
		return err
	}
	if err := j.WriteCheckpoint(0, payload); err != nil {
		j.Close()
		return fmt.Errorf("server: base checkpoint: %w", err)
	}
	t.jrnl = j
	t.dir = dir
	return nil
}

// relStoreFile names the sealed relation store inside a tenant's data
// directory: the engine's completed abstractions, written at graceful
// shutdown and loaded after recovery replay (see bonsai.Engine's relation
// store). It is a cache beside the journal, never ground truth: recovery
// that cannot use it (config drift after a crash, damage, an older format)
// logs the rejection and cold-starts.
const relStoreFile = "relstore.bin"

// configText renders the engine's current network as canonical config text —
// the checkpoint payload, chosen because it round-trips through the same
// parser an open does, so a recovered engine is built exactly like a fresh
// one.
func configText(eng *bonsai.Engine) ([]byte, error) {
	var buf bytes.Buffer
	if err := bonsai.Print(&buf, eng.Network()); err != nil {
		return nil, fmt.Errorf("server: render checkpoint config: %w", err)
	}
	return buf.Bytes(), nil
}

// startCheckpointer launches the tenant's background checkpointer; kicks are
// coalesced through a 1-buffered channel so the apply path never blocks on
// snapshot work.
func (t *tenant) startCheckpointer() {
	t.ckptKick = make(chan struct{}, 1)
	t.ckptStop = make(chan struct{})
	t.ckptDone = make(chan struct{})
	go t.checkpointLoop()
}

// maybeKickCheckpoint nudges the checkpointer once the journal tail reaches
// the configured length. Threshold < 0 disables background checkpoints.
func (t *tenant) maybeKickCheckpoint() {
	if t.jrnl == nil || t.ckptEvery < 0 {
		return
	}
	st := t.jrnl.Stats()
	if st.TailRecords < uint64(t.ckptEvery) {
		return
	}
	select {
	case t.ckptKick <- struct{}{}:
	default:
	}
}

func (t *tenant) checkpointLoop() {
	defer close(t.ckptDone)
	for {
		select {
		case <-t.ckptStop:
			return
		case <-t.ckptKick:
			if err := t.checkpointNow(); err != nil && !errors.Is(err, journal.ErrClosed) {
				log.Printf("bonsaid: tenant %s: checkpoint: %v", t.name, err)
			}
		}
	}
}

// checkpointNow snapshots the live config at the applied frontier and
// truncates the journal behind it. The write lock quiesces the write path so
// the captured (config, sequence) pair is consistent; the disk write happens
// after release so a slow fsync never stalls writers.
func (t *tenant) checkpointNow() error {
	t.writeMu.Lock()
	seq := t.appliedSeq.Load()
	if seq <= t.jrnl.CheckpointSeq() {
		t.writeMu.Unlock()
		return nil
	}
	payload, err := configText(t.eng)
	t.writeMu.Unlock()
	if err != nil {
		return err
	}
	return t.jrnl.WriteCheckpoint(seq, payload)
}

// sealJournal writes a final checkpoint (so the next recovery is
// checkpoint-only) and closes the journal, keeping the data directory. The
// caller holds the write lock with closed set, so appliedSeq is final.
func (t *tenant) sealJournal() {
	if t.jrnl == nil {
		return
	}
	if seq := t.appliedSeq.Load(); seq > t.jrnl.CheckpointSeq() {
		if payload, err := configText(t.eng); err == nil {
			if err := t.jrnl.WriteCheckpoint(seq, payload); err != nil {
				log.Printf("bonsaid: tenant %s: seal checkpoint: %v", t.name, err)
			}
		}
	}
	// Persist the completed abstractions beside the sealed journal so the
	// next recovery skips refinement. The engine is still open (the
	// caller closes it after us); a failed save only costs the next start
	// its warm cache.
	if err := t.eng.SaveRelationStore(filepath.Join(t.dir, relStoreFile)); err != nil {
		log.Printf("bonsaid: tenant %s: save relation store: %v", t.name, err)
	}
	t.jrnl.Close()
}

// errJournal tags journal I/O failures so replay can tell them from client
// decode errors.
var errJournal = errors.New("server: journal")

// journalDelta appends one delta to the tenant's journal, returning its
// sequence (0, nil when the tenant is not persistent). Callers must not
// acknowledge the delta before this returns: under fsync=always a returned
// sequence is durable against power loss.
func (t *tenant) journalDelta(d bonsai.Delta) (uint64, error) {
	if t.jrnl == nil {
		return 0, nil
	}
	payload, err := json.Marshal(d)
	if err != nil {
		return 0, fmt.Errorf("%w: encode delta: %v", errBadRequest, err)
	}
	seq, err := t.jrnl.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("%w append: %v", errJournal, err)
	}
	return seq, nil
}

// reconverge restores the invariant "live state ⊇ journaled prefix" after an
// aborted replay stream left journaled-but-unapplied records, by re-applying
// every record past fromSeq onto the live engine. Over-replay is safe
// (prefix idempotence), so fromSeq only needs to be a lower bound on what
// the stream had already applied. The caller holds the write lock.
func (t *tenant) reconverge(ctx context.Context, fromSeq uint64) {
	var deltas []bonsai.Delta
	if _, err := t.jrnl.Replay(fromSeq, collectDeltas(&deltas)); err != nil {
		log.Printf("bonsaid: tenant %s: reconverge scan: %v", t.name, err)
		return
	}
	if len(deltas) == 0 {
		return
	}
	// Detached context: the client that aborted the stream is gone, but the
	// re-apply is the daemon's own consistency work and must finish.
	if _, err := t.eng.ApplyAll(context.WithoutCancel(ctx), deltas); err != nil {
		if !errors.Is(err, bonsai.ErrClosed) {
			log.Printf("bonsaid: tenant %s: reconverge apply: %v", t.name, err)
		}
		return
	}
	t.appliedSeq.Store(t.jrnl.LastSeq())
}

// errBadPayload marks a CRC-valid journal record that is not a delta.
var errBadPayload = errors.New("undecodable record")

// collectDeltas returns a journal-replay callback that decodes each record
// into *out, stopping the scan with errBadPayload at the first that is not a
// delta.
func collectDeltas(out *[]bonsai.Delta) func(uint64, []byte) error {
	return func(_ uint64, payload []byte) error {
		var d bonsai.Delta
		if err := json.Unmarshal(payload, &d); err != nil {
			return fmt.Errorf("%w: %v", errBadPayload, err)
		}
		*out = append(*out, d)
		return nil
	}
}

// errSkipTenant marks a data directory recovery should ignore (no durable
// tenant ever fully materialised there).
var errSkipTenant = errors.New("skip")

// recoverAll rebuilds every journaled tenant found under DataDir. Failures
// are logged and skipped — one corrupt tenant must not keep the daemon from
// serving the others — and the damaged directory is left in place for
// inspection.
func (r *registry) recoverAll() {
	ents, err := os.ReadDir(r.cfg.DataDir)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("bonsaid: recovery: read data dir: %v", err)
		}
		return
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			log.Printf("bonsaid: recovery: skipping %q: bad name", e.Name())
			continue
		}
		if err := r.recoverOne(name); err != nil {
			if !errors.Is(err, errSkipTenant) {
				log.Printf("bonsaid: recovery: tenant %s: %v", name, err)
			}
			continue
		}
	}
}

// recoverOne rebuilds a single tenant: parse the checkpointed config, build
// a fresh engine over it, replay the journal tail through the coalescing
// stream path, then attach the journal for new appends. The read-only tail
// scan runs before journal.Open because Open repairs (truncates) a torn
// tail — scanning first preserves the damage evidence for /stats.
func (r *registry) recoverOne(name string) error {
	dir := r.tenantDir(name)
	ck, err := journal.LoadCheckpoint(dir)
	if errors.Is(err, journal.ErrNoCheckpoint) {
		// A directory with no checkpoint never finished opening (the base
		// checkpoint is written before the open is acknowledged); there is no
		// ground truth to recover.
		return errSkipTenant
	}
	if err != nil {
		return fmt.Errorf("load checkpoint: %w", err)
	}
	net, err := bonsai.ParseString(string(ck.Payload))
	if err != nil {
		return fmt.Errorf("parse checkpointed config: %w", err)
	}

	var deltas []bonsai.Delta
	info, err := journal.ReplayDir(dir, ck.Seq, collectDeltas(&deltas))
	if errors.Is(err, errBadPayload) {
		// CRC-valid but not a delta: treat like a corrupt record — recover
		// the prefix and raise the gap alarm.
		info.Truncated, info.Gap = true, true
		err = nil
	}
	if err != nil {
		return fmt.Errorf("scan journal: %w", err)
	}

	t, err := r.buildTenant(name, net)
	if err != nil {
		return fmt.Errorf("rebuild engine: %w", err)
	}
	if len(deltas) > 0 {
		// The tenant is not registered yet, so the lock is uncontended; it is
		// taken so that no Engine.Apply* in this package runs without it.
		t.writeMu.Lock()
		_, err := t.eng.ApplyAll(context.Background(), deltas)
		t.writeMu.Unlock()
		if err != nil {
			t.eng.Close()
			return fmt.Errorf("replay %d deltas: %w", len(deltas), err)
		}
	}
	// Load the sealed relation store after replay, so its config-hash guard
	// checks the final recovered network: a clean shutdown matches and the
	// engine starts warm; a crash that left journaled deltas past the seal
	// fails the hash and cold-starts — correct either way, since the store
	// is a cache.
	if n, err := t.eng.LoadRelationStore(filepath.Join(dir, relStoreFile)); err != nil {
		if !os.IsNotExist(err) {
			log.Printf("bonsaid: recovery: tenant %s: relation store rejected (cold start): %v", name, err)
		}
	} else if n > 0 {
		log.Printf("bonsaid: recovery: tenant %s: warm start, %d cached abstractions loaded", name, n)
	}
	j, err := journal.Open(dir, r.journalOpts())
	if err != nil {
		t.eng.Close()
		return fmt.Errorf("reopen journal: %w", err)
	}
	t.jrnl = j
	t.dir = dir
	seq := ck.Seq
	if info.LastSeq > seq {
		seq = info.LastSeq
	}
	t.appliedSeq.Store(seq)
	t.recovery = &RecoveryInfo{
		CheckpointSeq:  ck.Seq,
		ReplayedDeltas: info.Records,
		Truncated:      info.Truncated,
		Gap:            info.Gap,
		DroppedBytes:   info.DroppedBytes,
	}
	t.startCheckpointer()

	r.mu.Lock()
	if _, exists := r.tenants[name]; exists {
		r.mu.Unlock()
		j.Close()
		t.eng.Close()
		return fmt.Errorf("tenant already open")
	}
	r.tenants[name] = t
	r.mu.Unlock()

	if info.Records > 0 || info.Truncated {
		log.Printf("bonsaid: recovery: tenant %s: checkpoint seq %d, replayed %d deltas (truncated=%v gap=%v dropped=%dB)",
			name, ck.Seq, info.Records, info.Truncated, info.Gap, info.DroppedBytes)
	}
	return nil
}

// journalStats assembles the /stats durability block.
func (t *tenant) journalStats() *JournalStats {
	if t.jrnl == nil {
		return nil
	}
	return &JournalStats{
		Stats:      t.jrnl.Stats(),
		AppliedSeq: t.appliedSeq.Load(),
		Recovery:   t.recovery,
	}
}
