package plancache

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestValidTenantName pins the tenant-name alphabet: names become file
// names, headers and JSON values, so anything outside [A-Za-z0-9_-] (or
// empty, or over-long) is rejected.
func TestValidTenantName(t *testing.T) {
	good := []string{"default", "acme", "t1", "A-b_C9", strings.Repeat("x", 64)}
	for _, name := range good {
		if !ValidTenantName(name) {
			t.Errorf("ValidTenantName(%q) = false, want true", name)
		}
	}
	bad := []string{"", ".", "..", "a/b", `a\b`, "a.b", "a b", "a:b", "café",
		strings.Repeat("x", 65)}
	for _, name := range bad {
		if ValidTenantName(name) {
			t.Errorf("ValidTenantName(%q) = true, want false", name)
		}
	}
}

// TestStoreRoundTrip pins the store layout: NewStore creates the
// directory, a tenant's snapshot lives at <dir>/<tenant>.pcache, and a
// snapshot saved there loads back only under its own fingerprint.
func TestStoreRoundTrip(t *testing.T) {
	_, snap := starSnapshot(t, 42)
	dir := filepath.Join(t.TempDir(), "snapshots")
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	path, err := store.Path("acme")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "acme.pcache"); path != want {
		t.Fatalf("Path(acme) = %s, want %s", path, want)
	}
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path, snap.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != snap.Fingerprint || len(got.Queries) != len(snap.Queries) {
		t.Fatalf("loaded snapshot fp=%x queries=%d, want fp=%x queries=%d",
			got.Fingerprint, len(got.Queries), snap.Fingerprint, len(snap.Queries))
	}

	// A stale fingerprint must be rejected exactly like a standalone Load.
	if _, err := Load(path, snap.Fingerprint+1); err == nil {
		t.Fatal("stale-fingerprint load succeeded, want rejection")
	}
}

// TestStoreRejectsBadTenantNames pins path safety: no tenant name can
// escape the store directory or collide with non-snapshot files.
func TestStoreRejectsBadTenantNames(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "../escape", "a/b", "a.pcache"} {
		if _, err := store.Path(name); err == nil {
			t.Errorf("Path(%q) succeeded, want error", name)
		}
	}
}
