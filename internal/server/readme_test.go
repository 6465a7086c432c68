package server

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestReadmeMatchesWireFormat keeps the README's daemon section in
// step with the code: its list of request fields names every JSON
// field of Request, and every metric its table names is registered.
func TestReadmeMatchesWireFormat(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	// The list of request fields is the paragraph that opens with
	// "Request fields:".
	i := strings.Index(readme, "\nRequest fields:")
	if i < 0 {
		t.Fatal(`README has no "Request fields:" paragraph`)
	}
	fields := readme[i+1:]
	if j := strings.Index(fields, "\n\n"); j >= 0 {
		fields = fields[:j]
	}
	rt := reflect.TypeOf(Request{})
	for k := 0; k < rt.NumField(); k++ {
		name, _, _ := strings.Cut(rt.Field(k).Tag.Get("json"), ",")
		if !strings.Contains(fields, "`"+name+"`") {
			t.Errorf("README's request fields omit `%s`", name)
		}
	}

	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	registered := make(map[string]bool)
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			registered[name] = true
		}
	}
	metric := regexp.MustCompile(`statleak_[a-z0-9_]+`)
	rows := 0
	for _, line := range strings.Split(readme, "\n") {
		if !strings.HasPrefix(line, "| `statleak_") {
			continue
		}
		rows++
		for _, name := range metric.FindAllString(line, -1) {
			if !registered[name] {
				t.Errorf("README's metric table names %s, which is not registered", name)
			}
		}
	}
	if rows == 0 {
		t.Fatal("README has no metric table")
	}
}
