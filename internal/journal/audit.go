package journal

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"
)

// auditIndex is the in-memory query index over the journal: built from
// the recovery scan at Open and updated on every Append (shed records
// included — degraded mode must not blind the audit surface). Bounded:
// per-device history is a small ring and total tracked devices are
// capped FIFO, so a device-churning fleet cannot grow it without bound.
type auditIndex struct {
	mu          sync.Mutex
	devices     map[string][]auditEntry
	deviceOrder []string
	reasons     map[string]*reasonCluster
	dicts       []dictEvent
}

const (
	auditPerDevice  = 64
	auditMaxDevices = 4096
)

// auditEntry is one device-history row.
type auditEntry struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	App     string    `json:"app"`
	Outcome string    `json:"outcome"`
	Reason  string    `json:"reason,omitempty"`
	Detail  string    `json:"detail,omitempty"`
}

// reasonCluster aggregates rejections sharing one ReasonCode.
type reasonCluster struct {
	Reason     string            `json:"reason"`
	Count      uint64            `json:"count"`
	Apps       map[string]uint64 `json:"apps"`
	LastSeq    uint64            `json:"last_seq"`
	LastDevice string            `json:"last_device,omitempty"`
	LastDetail string            `json:"last_detail,omitempty"`
}

// dictEvent is one point on the dictionary-version timeline.
type dictEvent struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	App     string    `json:"app"`
	Version uint64    `json:"version"`
	Bytes   int       `json:"bytes"`
}

// note folds one record into the index.
func (a *auditIndex) note(rec Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch rec.Kind {
	case KindDict:
		a.dicts = append(a.dicts, dictEvent{
			Seq: rec.Seq, Time: rec.Time, App: rec.App,
			Version: rec.DictVersion, Bytes: len(rec.Payload),
		})
	case KindVerdict:
		e := auditEntry{
			Seq: rec.Seq, Time: rec.Time, App: rec.App,
			Outcome: rec.Outcome.String(), Detail: rec.Detail,
		}
		if rec.Outcome == OutcomeAttack || rec.Outcome == OutcomeInconclusive {
			e.Reason = rec.Code.String()
		}
		if a.devices == nil {
			a.devices = make(map[string][]auditEntry)
		}
		hist, known := a.devices[rec.Device]
		if !known {
			if len(a.deviceOrder) >= auditMaxDevices {
				oldest := a.deviceOrder[0]
				a.deviceOrder = a.deviceOrder[1:]
				delete(a.devices, oldest)
			}
			a.deviceOrder = append(a.deviceOrder, rec.Device)
		}
		if len(hist) >= auditPerDevice {
			copy(hist, hist[1:])
			hist = hist[:auditPerDevice-1]
		}
		a.devices[rec.Device] = append(hist, e)

		if rec.Outcome != OutcomeOK {
			if a.reasons == nil {
				a.reasons = make(map[string]*reasonCluster)
			}
			key := rec.Code.String()
			c := a.reasons[key]
			if c == nil {
				c = &reasonCluster{Reason: key, Apps: make(map[string]uint64)}
				a.reasons[key] = c
			}
			c.Count++
			c.Apps[rec.App]++
			c.LastSeq = rec.Seq
			c.LastDevice = rec.Device
			c.LastDetail = rec.Detail
		}
	}
}

// AuditHandler serves the journal's audit queries as JSON:
//
//	/debug/journal            chain summary + counters
//	/debug/journal?device=D   verdict history for one device
//	/debug/journal?reasons=1  rejection clusters by ReasonCode
//	/debug/journal?dicts=1    dictionary-version timeline
func AuditHandler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		q := r.URL.Query()
		switch {
		case q.Get("device") != "":
			_ = enc.Encode(j.audit.deviceHistory(q.Get("device")))
		case q.Get("reasons") != "":
			_ = enc.Encode(j.audit.reasonClusters())
		case q.Get("dicts") != "":
			_ = enc.Encode(j.audit.dictTimeline())
		default:
			_ = enc.Encode(j.summary())
		}
	})
}

// summary is the default /debug/journal body.
func (j *Journal) summary() map[string]any {
	c := j.Counters()
	degraded := j.Degraded()
	j.mu.Lock()
	next := j.nextSeq.Load()
	head := j.head
	j.mu.Unlock()
	return map[string]any{
		"next_seq":     next,
		"head":         hashHex(head),
		"segments":     j.SealedSegments() + 1,
		"degraded":     degraded,
		"devices":      j.audit.deviceCount(),
		"appended":     c.Appended,
		"rotated":      c.Rotated,
		"recovered":    c.Recovered,
		"truncated":    c.Truncated,
		"chain_breaks": c.ChainBreaks,
		"quarantined":  c.Quarantined,
		"shed":         c.Shed,
		"ring_dropped": c.RingDropped,
		"write_errors": c.WriteErrors,
		"fsyncs":       c.Fsyncs,
	}
}

func (a *auditIndex) deviceCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.devices)
}

func (a *auditIndex) deviceHistory(device string) map[string]any {
	a.mu.Lock()
	defer a.mu.Unlock()
	hist := append([]auditEntry(nil), a.devices[device]...)
	return map[string]any{"device": device, "history": hist}
}

func (a *auditIndex) reasonClusters() map[string]any {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*reasonCluster, 0, len(a.reasons))
	for _, c := range a.reasons {
		cp := *c
		cp.Apps = make(map[string]uint64, len(c.Apps))
		for k, v := range c.Apps {
			cp.Apps[k] = v
		}
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Count > out[k].Count })
	return map[string]any{"clusters": out}
}

func (a *auditIndex) dictTimeline() map[string]any {
	a.mu.Lock()
	defer a.mu.Unlock()
	return map[string]any{"dictionaries": append([]dictEvent(nil), a.dicts...)}
}
