package plancache

// Store: the on-disk layout for a multi-tenant snapshot collection — one
// directory, one <tenant>.pcache file per tenant at the path Store.Path
// names, each written and read with the same crash-safe,
// fingerprint-validated Save/Load as a standalone snapshot file. The
// store adds nothing to the format; it only fixes the naming contract, so
// an operator can point N dedicated single-tenant processes and one
// multi-tenant process at the same directory and they read each other's
// snapshots byte for byte.

import (
	"fmt"
	"os"
	"path/filepath"
)

// storeExt is the snapshot file suffix inside a Store directory.
const storeExt = ".pcache"

// maxTenantNameLen bounds tenant names; they become file names.
const maxTenantNameLen = 64

// ValidTenantName reports whether name is usable as a tenant id: 1-64
// characters from [A-Za-z0-9_-]. The alphabet keeps names safe as file
// names (no separators, no "..", nothing needing escaping) and safe to
// embed in URLs, headers and JSON without quoting surprises.
func ValidTenantName(name string) bool {
	if len(name) == 0 || len(name) > maxTenantNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Store is a directory of per-tenant snapshot files.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a snapshot store directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("plancache: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("plancache: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the snapshot file path for a tenant, or an error for an
// invalid name (never a path outside the store directory).
func (st *Store) Path(tenant string) (string, error) {
	if !ValidTenantName(tenant) {
		return "", fmt.Errorf("plancache: invalid tenant name %q", tenant)
	}
	return filepath.Join(st.dir, tenant+storeExt), nil
}
