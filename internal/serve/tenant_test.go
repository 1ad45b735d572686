package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTenantSetResolvesKeys(t *testing.T) {
	ts, err := newTenantSet([]TenantConfig{
		{Name: "a", Key: "key-a", Weight: 3},
		{Name: "b", Key: "key-b", RatePerSec: 10, Burst: 5, MaxQueued: 7},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ts.forKey("key-a")
	if err != nil || a.name != "a" || a.weight != 3 || a.bucket != nil {
		t.Fatalf("key-a resolved %+v, %v", a, err)
	}
	b, err := ts.forKey("key-b")
	if err != nil || b.name != "b" || b.bucket == nil || b.maxQueued != 7 {
		t.Fatalf("key-b resolved %+v, %v", b, err)
	}
	// No key falls back to the anonymous tenant.
	anon, err := ts.forKey("")
	if err != nil || anon.name != DefaultTenant || anon.weight != 1 {
		t.Fatalf("empty key resolved %+v, %v", anon, err)
	}
	if _, err := ts.forKey("bogus"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown key gave %v, want ErrUnauthorized", err)
	}
	if w := ts.weightOf("a"); w != 3 {
		t.Fatalf("weightOf(a) = %d", w)
	}
	if w := ts.weightOf("nobody"); w != 1 {
		t.Fatalf("weightOf(nobody) = %d, want fallback 1", w)
	}
}

func TestTenantSetRequireKey(t *testing.T) {
	ts, err := newTenantSet([]TenantConfig{{Name: "a", Key: "k"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.forKey(""); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("require_key with no key gave %v, want ErrUnauthorized", err)
	}
	if _, err := ts.forKey("k"); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}
}

func TestTenantSetValidation(t *testing.T) {
	cases := []struct {
		name string
		cfgs []TenantConfig
		want string
	}{
		{"missing name", []TenantConfig{{Key: "k"}}, "name"},
		{"missing key", []TenantConfig{{Name: "x"}}, "key"},
		{"dup name", []TenantConfig{{Name: "x", Key: "k1"}, {Name: "x", Key: "k2"}}, "duplicate"},
		{"dup key", []TenantConfig{{Name: "x", Key: "k"}, {Name: "y", Key: "k"}}, "duplicate"},
		{"negative rate", []TenantConfig{{Name: "x", Key: "k", RatePerSec: -1}}, "rate"},
		{"negative burst", []TenantConfig{{Name: "x", Key: "k", Burst: -1}}, "burst"},
		{"negative quota", []TenantConfig{{Name: "x", Key: "k", MaxQueued: -1}}, "max_queued"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newTenantSet(tc.cfgs, false); err == nil ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error mentioning %q", err, tc.want)
			}
		})
	}
}

// Config naming the anonymous tenant overrides the built-in one, so
// keyless traffic can be throttled without requiring keys.
func TestTenantSetAnonOverride(t *testing.T) {
	ts, err := newTenantSet([]TenantConfig{
		{Name: DefaultTenant, Weight: 5, RatePerSec: 1, Burst: 1},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := ts.forKey("")
	if err != nil || anon.weight != 5 || anon.bucket == nil {
		t.Fatalf("overridden anon resolved %+v, %v", anon, err)
	}
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(2, 4) // 2 tokens/s, burst 4
	now := time.Unix(1000, 0)
	// Initial burst: 4 tokens available.
	for i := 0; i < 4; i++ {
		if _, ok := b.take(now, 1); !ok {
			t.Fatalf("take %d of the initial burst failed", i)
		}
	}
	wait, ok := b.take(now, 1)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %v, want ~0.5s for one token at 2/s", wait)
	}
	// A failed take must not drain anything: refill half a token and
	// the next single take still fails, but after a full second two
	// tokens accumulated.
	if _, ok := b.take(now.Add(time.Second), 2); !ok {
		t.Fatal("two tokens after one second at 2/s should succeed")
	}
	// Batch takes are atomic: asking for more than available leaves
	// the bucket untouched.
	b2 := newTokenBucket(1, 3)
	if _, ok := b2.take(now, 5); ok {
		t.Fatal("batch larger than burst+tokens granted")
	}
	if _, ok := b2.take(now, 3); !ok {
		t.Fatal("full burst take failed after a refused batch — the refusal drained tokens")
	}
}

func TestRetryAfterSecs(t *testing.T) {
	if got := retryAfterSecs(0); got != 1 {
		t.Fatalf("retryAfterSecs(0) = %d, want minimum 1", got)
	}
	if got := retryAfterSecs(1200 * time.Millisecond); got != 2 {
		t.Fatalf("retryAfterSecs(1.2s) = %d, want ceil 2", got)
	}
}

func TestLoadTenantsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	body := `{
  "require_key": true,
  "tenants": [
    {"name": "ci", "key": "key-ci", "weight": 4},
    {"name": "lab", "key": "key-lab", "rate_per_sec": 2.5, "burst": 10, "max_queued": 3}
  ]
}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	tf, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tf.RequireKey || len(tf.Tenants) != 2 || tf.Tenants[0].Weight != 4 ||
		tf.Tenants[1].RatePerSec != 2.5 {
		t.Fatalf("loaded %+v", tf)
	}

	if _, err := LoadTenantsFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"tenants": [{"key": "no-name"}]}`), 0o644)
	if _, err := LoadTenantsFile(bad); err == nil {
		t.Fatal("invalid registry loaded")
	}
	notJSON := filepath.Join(dir, "not.json")
	os.WriteFile(notJSON, []byte("nope"), 0o644)
	if _, err := LoadTenantsFile(notJSON); err == nil {
		t.Fatal("non-JSON registry loaded")
	}
}

// FuzzLoadTenantsFile loads arbitrary bytes as a -tenants file. It
// must never panic, and in a file it accepts every non-empty key
// resolves to the tenant that declares it.
func FuzzLoadTenantsFile(f *testing.F) {
	f.Add([]byte(`{"require_key": true, "tenants": [{"name": "ci", "key": "key-ci", "weight": 4},` +
		`{"name": "lab", "key": "key-lab", "rate_per_sec": 2.5, "burst": 10, "max_queued": 3}]}`))
	f.Add([]byte(`{"tenants": [{"name": "anon", "key": "k", "rate_per_sec": 0.5}]}`))
	f.Add([]byte(`{"tenants": [{"name": "a", "key": "k"}, {"name": "b", "key": "k"}]}`))
	f.Add([]byte(`{"tenants": [{"key": "no-name"}]}`))
	f.Add([]byte("nope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tenants.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tf, err := LoadTenantsFile(path)
		if err != nil {
			return
		}
		ts, err := newTenantSet(tf.Tenants, tf.RequireKey)
		if err != nil {
			t.Fatalf("accepted file does not build its registry: %v", err)
		}
		for _, c := range tf.Tenants {
			if c.Key == "" {
				continue
			}
			if got, err := ts.forKey(c.Key); err != nil || got.name != c.Name {
				t.Fatalf("key %q resolves to %v (%v), want tenant %q", c.Key, got, err, c.Name)
			}
		}
	})
}
