// The persistent report store: completed sessions spill their immutable
// artifacts — the serialized report and, when recorded, the VXTR trace
// container — to a content-addressed directory, and the in-memory copies
// are flushed. A finished session then holds only its manifest, graph and
// metrics in memory, and
// GET /v1/sessions/{id}/report survives a daemon restart: a new Service
// opened on the same store lists the stored sessions and serves their
// exact finalized bytes (content addressing makes "exact" structural —
// the blob's name is the hash of what was cached at finalization).
//
// Layout under the store directory:
//
//	objects/sha256-<hex>   immutable blobs, written once via temp+rename
//	sessions/<id>.json     one manifest per finalized session
//
// Blobs are deduplicated for free: two sessions of the same seeded
// workload produce one report object.
package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store is a content-addressed on-disk artifact store. Methods are safe
// for concurrent use: blobs are immutable and manifests are written
// atomically via temp-file + rename.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "sessions"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("daemon: open store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// Manifest is one finalized session's durable record. Report and Trace
// are blob addresses into the object store ("" = artifact absent).
type Manifest struct {
	ID       string `json:"id"`
	Seq      int    `json:"seq"`
	Program  string `json:"program"`
	Device   string `json:"device"`
	State    State  `json:"state"`
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	Report   string `json:"report,omitempty"`
	Trace    string `json:"trace,omitempty"`
}

// Put stores data as an immutable blob and returns its address.
func (st *Store) Put(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	addr := "sha256-" + hex.EncodeToString(sum[:])
	path := filepath.Join(st.dir, "objects", addr)
	if _, err := os.Stat(path); err == nil {
		return addr, nil // content-addressed: already stored
	}
	if err := atomicWrite(path, data); err != nil {
		return "", fmt.Errorf("daemon: store blob: %w", err)
	}
	return addr, nil
}

// Get reads the blob at addr.
func (st *Store) Get(addr string) ([]byte, error) {
	if !validAddr(addr) {
		return nil, fmt.Errorf("daemon: invalid blob address %q", addr)
	}
	data, err := os.ReadFile(filepath.Join(st.dir, "objects", addr))
	if err != nil {
		return nil, fmt.Errorf("daemon: load blob: %w", err)
	}
	return data, nil
}

// PutManifest durably records one session's manifest.
func (st *Store) PutManifest(m *Manifest) error {
	if !validID(m.ID) {
		return fmt.Errorf("daemon: invalid session id %q", m.ID)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(st.dir, "sessions", m.ID+".json")
	if err := atomicWrite(path, data); err != nil {
		return fmt.Errorf("daemon: store manifest: %w", err)
	}
	return nil
}

// Manifests loads every stored session manifest, sorted by admission
// sequence. Unreadable or malformed manifests are skipped (a store
// shared with a half-crashed writer should not poison restart).
func (st *Store) Manifests() ([]*Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "sessions"))
	if err != nil {
		return nil, fmt.Errorf("daemon: list manifests: %w", err)
	}
	var out []*Manifest
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, "sessions", e.Name()))
		if err != nil {
			continue
		}
		m := &Manifest{}
		if json.Unmarshal(data, m) != nil || !validID(m.ID) {
			continue
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// validAddr accepts exactly the addresses Put mints, keeping Get from
// ever resolving a path outside objects/.
func validAddr(addr string) bool {
	const prefix = "sha256-"
	if !strings.HasPrefix(addr, prefix) || len(addr) != len(prefix)+sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(addr[len(prefix):])
	return err == nil
}

// validID accepts the service's own "s-<n>" IDs and rejects anything
// that could escape sessions/.
func validID(id string) bool {
	if id == "" || strings.ContainsAny(id, "/\\") || id != filepath.Base(id) {
		return false
	}
	return !strings.HasPrefix(id, ".")
}

// atomicWrite lands data at path via a temp file and rename, so readers
// never observe a partial artifact.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
