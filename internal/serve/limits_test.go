package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// oversizedCreate is a well-formed create body padded past the create limit
// inside a string field, so only its size is wrong.
func oversizedCreate(t *testing.T) []byte {
	t.Helper()
	req := fastSpec(t, "big", 1)
	req.Env.Name = strings.Repeat("x", maxCreateBodyBytes)
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// post sends body to path; chunked hides the length from the server, so
// the limit must be enforced while reading rather than from Content-Length.
func post(t *testing.T, url string, body []byte, chunked bool) int {
	t.Helper()
	var r io.Reader = bytes.NewReader(body)
	if chunked {
		r = io.MultiReader(r) // not a known-length reader: sent chunked
	}
	resp, err := http.Post(url, "application/json", r)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

func TestServerCreateBodyLimit(t *testing.T) {
	for _, chunked := range []bool{false, true} {
		dir := t.TempDir()
		s, client := newTestServer(t, Config{StateDir: dir})
		if code := post(t, client.base+"/campaigns", oversizedCreate(t), chunked); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("chunked=%v: oversized create = %d, want 413", chunked, code)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("chunked=%v: oversized create left %d entries in the state dir", chunked, len(entries))
		}
		if n := s.Stats().Campaigns; n != 0 {
			t.Fatalf("chunked=%v: oversized create registered %d campaigns", chunked, n)
		}
	}
}

func TestServerStepBodyLimit(t *testing.T) {
	_, client := newTestServer(t, Config{})
	var created CampaignStatus
	client.mustJSON("POST", "/campaigns", fastSpec(t, "lim", 2), http.StatusCreated, &created)
	body := []byte(`{"steps":1,"pad":"` + strings.Repeat("x", maxStepBodyBytes) + `"}`)
	for _, chunked := range []bool{false, true} {
		if code := post(t, client.base+"/campaigns/lim/step", body, chunked); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("chunked=%v: oversized step = %d, want 413", chunked, code)
		}
	}
	var st CampaignStatus
	client.mustJSON("GET", "/campaigns/lim", nil, http.StatusOK, &st)
	if st.Steps != 0 || st.Trials != 0 {
		t.Fatalf("oversized step requests advanced the campaign: %+v", st)
	}
}
