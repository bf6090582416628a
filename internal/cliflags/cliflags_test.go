package cliflags

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCampaignWiring checks that each flag reaches its field in both
// the local and the fabric campaign config. Validation is covered by
// the commands' usage-error tables.
func TestCampaignWiring(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := &Campaign{}
	c.Register(fs)
	err := fs.Parse([]string{"-checkpoint", filepath.Join(dir, "c.ckpt"), "-cache", filepath.Join(dir, "c.cache"),
		"-parallel", "3", "-retries", "2", "-job-timeout", "5s",
		"-workers", "h1:8077, http://h2:8077/", "-lease", "9s", "-audit-frac", "0.25", "-audit-seed", "7"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open(); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.CacheStats() == nil {
		t.Fatal("-cache not opened")
	}
	lc := c.local()
	if lc.Checkpoint != c.Checkpoint || lc.Workers != 3 || lc.Retries != 2 || lc.JobTimeout != 5*time.Second || lc.Cache == nil {
		t.Errorf("local config %+v", lc)
	}
	fc := c.distributed()
	if got := strings.Join(fc.Workers, " "); got != "http://h1:8077 http://h2:8077" {
		t.Errorf("fabric workers %q", got)
	}
	if fc.Parallel != 3 || fc.Lease != 9*time.Second || fc.AuditFrac != 0.25 || fc.AuditSeed != 7 ||
		fc.Retries != 2 || fc.JobTimeout != 5*time.Second || fc.Checkpoint != c.Checkpoint || fc.Cache == nil {
		t.Errorf("fabric config %+v", fc)
	}
}
