package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentEncodesAreByteIdentical hammers one server with
// concurrent encodes across several tenants and datasets (run under
// -race in CI) and asserts every response is byte-identical to the
// serial reference encode of the same input — concurrency must never
// change output bytes.
func TestConcurrentEncodesAreByteIdentical(t *testing.T) {
	const (
		tenants    = 4
		perTenant  = 3 // goroutines per tenant
		iterations = 2 // requests per goroutine
		seed       = 7
	)

	// One distinct dataset per tenant, each with its own serial
	// reference bytes.
	type fixture struct {
		csv string
		enc []byte
	}
	fixtures := make([]fixture, tenants)
	for i := range fixtures {
		d, csv := testData(t, 200+17*i, int64(100+i))
		_, enc := refEncode(t, d, seed)
		fixtures[i] = fixture{csv: csv, enc: enc}
	}

	s := mustServer(t, Config{Workers: 4, Chunk: 64})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var wg sync.WaitGroup
	errc := make(chan error, tenants*perTenant*iterations)
	for ti := 0; ti < tenants; ti++ {
		for g := 0; g < perTenant; g++ {
			wg.Add(1)
			go func(ti, g int) {
				defer wg.Done()
				fx := fixtures[ti]
				for it := 0; it < iterations; it++ {
					url := fmt.Sprintf("%s/v1/encode?key=g%d-i%d&seed=%d&overwrite=1", ts.URL, g, it, seed)
					req, err := http.NewRequest("POST", url, strings.NewReader(fx.csv))
					if err != nil {
						errc <- err
						return
					}
					req.Header.Set(tenantHeader, fmt.Sprintf("tenant%d", ti))
					resp, err := ts.Client().Do(req)
					if err != nil {
						errc <- err
						return
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errc <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("tenant%d g%d it%d: status %d: %s", ti, g, it, resp.StatusCode, body)
						return
					}
					if !bytes.Equal(body, fx.enc) {
						errc <- fmt.Errorf("tenant%d g%d it%d: concurrent encode differs from serial reference", ti, g, it)
						return
					}
				}
			}(ti, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Key stores stayed tenant-isolated under concurrency: each tenant
	// holds exactly the keys its own goroutines wrote.
	for ti := 0; ti < tenants; ti++ {
		names, err := s.cfg.Keys.List(fmt.Sprintf("tenant%d", ti))
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != perTenant*iterations {
			t.Errorf("tenant%d holds %d keys, want %d: %v", ti, len(names), perTenant*iterations, names)
		}
	}
}

// TestConcurrentKeyStoreMutation pounds Put/Get/Delete/List on one
// FileStore from many goroutines; under -race this proves the store's
// locking, and afterward every surviving key must read back intact.
func TestConcurrentKeyStoreMutation(t *testing.T) {
	st, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", g%4) // tenants shared across goroutines
			for i := 0; i < 20; i++ {
				// Tenants are shared, names are not: a goroutine only
				// deletes its own keys, so its Get right after its Put
				// must find the key.
				name := fmt.Sprintf("g%d-k%d", g, i%5)
				wire := []byte(fmt.Sprintf(`{"g":%d,"i":%d}`, g, i))
				if _, err := st.Put(tenant, name, wire); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Get(tenant, name); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.List(tenant); err != nil {
					t.Error(err)
					return
				}
				if i%7 == 0 {
					if err := st.Delete(tenant, name); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 4; g++ {
		tenant := fmt.Sprintf("t%d", g)
		names, err := st.List(tenant)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			wire, err := st.Get(tenant, name)
			if err != nil {
				t.Fatalf("%s/%s vanished after concurrent mutation: %v", tenant, name, err)
			}
			if len(wire) == 0 || wire[0] != '{' {
				t.Fatalf("%s/%s read back torn bytes: %q", tenant, name, wire)
			}
		}
	}
}
