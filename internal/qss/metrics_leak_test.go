package qss

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestUnsubscribeReleasesPollHistogram is the regression test for the
// per-subscription metric leak: each Subscribe registers a
// qss_poll_ns{sub=…} histogram, and Unsubscribe must unregister it, so
// churning through unique subscription names leaves the registry's
// histogram count where it started. Plain, WAL and segmented services all
// take the same unsubscribe path.
func TestUnsubscribeReleasesPollHistogram(t *testing.T) {
	modes := []struct {
		name   string
		cycles int
		enable func(*Service) error
	}{
		{"plain", 5000, func(*Service) error { return nil }},
		{"wal", 20, func(s *Service) error { return s.EnableWAL(filepath.Join(t.TempDir(), "wal"), nil) }},
		{"segments", 20, func(s *Service) error { return s.EnableSegments(filepath.Join(t.TempDir(), "seg"), nil, nil) }},
	}
	src, _ := paperSource(t)
	for _, m := range modes {
		svc := NewService(func(Notification) {})
		if err := m.enable(svc); err != nil {
			t.Fatal(err)
		}
		before := len(obs.Snapshot().Histograms)
		for i := 0; i < m.cycles; i++ {
			name := fmt.Sprintf("Leak%s%d", m.name, i)
			if err := svc.Subscribe(Subscription{
				Name:    name,
				Source:  src,
				Polling: `select source.restaurant`,
				Filter:  fmt.Sprintf(`select %s.restaurant`, name),
			}); err != nil {
				t.Fatal(err)
			}
			if i == 0 && len(obs.Snapshot().Histograms) != before+1 {
				t.Fatalf("%s: Subscribe did not register its poll histogram", m.name)
			}
			if err := svc.Unsubscribe(name); err != nil {
				t.Fatal(err)
			}
		}
		if after := len(obs.Snapshot().Histograms); after != before {
			t.Errorf("%s: %d subscribe/unsubscribe cycles left %d histograms, want %d",
				m.name, m.cycles, after, before)
		}
		svc.Close()
	}
}

// TestSharedPollHistogramOutlivesOneUnsubscribe: two Services in one
// process with a subscription of the same name share one
// qss_poll_ns{sub=…} series, so unsubscribing in one must leave it
// registered for the other until that one unsubscribes too.
func TestSharedPollHistogramOutlivesOneUnsubscribe(t *testing.T) {
	src, _ := paperSource(t)
	name := "SharedPollSeries"
	series := obs.LabeledName("qss_poll_ns", "sub", name)
	registered := func() bool { _, ok := obs.Snapshot().Histograms[series]; return ok }
	svcs := []*Service{NewService(func(Notification) {}), NewService(func(Notification) {})}
	for _, svc := range svcs {
		defer svc.Close()
		if err := svc.Subscribe(Subscription{
			Name:    name,
			Source:  src,
			Polling: `select source.restaurant`,
			Filter:  fmt.Sprintf(`select %s.restaurant`, name),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svcs[0].Unsubscribe(name); err != nil {
		t.Fatal(err)
	}
	if !registered() {
		t.Fatal("one Service's Unsubscribe removed the series the other still holds")
	}
	if err := svcs[1].Unsubscribe(name); err != nil {
		t.Fatal(err)
	}
	if registered() {
		t.Fatal("series still registered after both Services unsubscribed")
	}
}
