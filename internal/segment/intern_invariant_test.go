package segment

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"
	"unsafe"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/oemio"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
)

// requireCanonical fails unless every arc label of g over nodes is the
// interned canonical string: Lookup-able, and sharing the symbol table's
// backing bytes. The backing check proves the recording path itself ran
// the label through symbol.Canon — a decoder that kept its own freshly
// allocated string would fail it even when the content was interned
// elsewhere. The index and the evaluator's symbol-keyed label lookups
// rely on this invariant.
func requireCanonical(t *testing.T, where string, nodes []oem.NodeID, out func(oem.NodeID) []oem.Arc) {
	t.Helper()
	arcs := 0
	for _, n := range nodes {
		for _, a := range out(n) {
			arcs++
			id, ok := symbol.Lookup(a.Label)
			if !ok {
				t.Fatalf("%s: label %q of %s is not interned", where, a.Label, a)
			}
			if unsafe.StringData(a.Label) != unsafe.StringData(symbol.String(id)) {
				t.Fatalf("%s: label %q of %s is not the canonical string", where, a.Label, a)
			}
		}
	}
	if arcs == 0 {
		t.Fatalf("%s: no arcs checked", where)
	}
}

// TestArcLabelsInterned walks every arc-recording path — oem.AddArc,
// doem.Apply, the WAL replay and checkpoint, the JSON wire codecs, and a
// segmented store reopened from disk — and checks each yields canonical,
// interned labels. The history removes an arc whose label appears nowhere
// else, so a path that only interned the current snapshot would leave it
// out.
func TestArcLabelsInterned(t *testing.T) {
	label := func(s string) string { return fmt.Sprintf("intern-invariant-%s", s) }
	base := oem.New()
	r := base.CreateNode(value.Complex())
	if err := base.AddArc(base.Root(), label("live"), r); err != nil {
		t.Fatal(err)
	}
	requireCanonical(t, "oem.AddArc", base.Nodes(), base.Out)

	d := doem.New(base.Clone())
	t0 := timestamp.MustParse("1Jan97")
	gone := d.MaxID() + 1
	steps := []change.Set{
		{change.CreNode{Node: gone, Value: value.Str("x")}, change.AddArc{Parent: r, Label: label("dead"), Child: gone}},
		{change.RemArc{Parent: r, Label: label("dead"), Child: gone}},
	}
	for i, ops := range steps {
		if err := d.Apply(t0.Add(time.Duration(i)*24*time.Hour), ops); err != nil {
			t.Fatal(err)
		}
	}
	requireCanonical(t, "doem.Apply", d.AllNodeIDs(), d.OutAll)

	// Wire: a label that only a removed arc carries, renamed in the
	// encoded bytes to one this process has never seen.
	data, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fresh := label("wire-only")
	if _, ok := symbol.Lookup(fresh); ok {
		t.Fatalf("%q already interned", fresh)
	}
	w, err := doem.Unmarshal(bytes.ReplaceAll(data, []byte(label("dead")), []byte(fresh)))
	if err != nil {
		t.Fatal(err)
	}
	requireCanonical(t, "doem.Unmarshal", w.AllNodeIDs(), w.OutAll)
	if _, ok := symbol.Lookup(fresh); !ok {
		t.Fatalf("doem.Unmarshal left removed-arc label %q uninterned", fresh)
	}
	snap, err := oemio.Marshal(d.Current())
	if err != nil {
		t.Fatal(err)
	}
	o, err := oemio.Unmarshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	requireCanonical(t, "oemio.Unmarshal", o.Nodes(), o.Out)

	// WAL: replay of logged steps, then of a checkpoint.
	l, err := wal.Open(filepath.Join(t.TempDir(), "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.CheckpointDOEM(doem.New(base.Clone())); err != nil {
		t.Fatal(err)
	}
	for i, ops := range steps {
		if _, err := l.AppendStep(t0.Add(time.Duration(i)*24*time.Hour), ops); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := l.ReplayDOEM()
	if err != nil {
		t.Fatal(err)
	}
	requireCanonical(t, "wal replay", rd.AllNodeIDs(), rd.OutAll)
	if err := l.CheckpointDOEM(rd); err != nil {
		t.Fatal(err)
	}
	cd, err := l.ReplayDOEM()
	if err != nil {
		t.Fatal(err)
	}
	requireCanonical(t, "wal checkpoint", cd.AllNodeIDs(), cd.OutAll)

	// Segments: one sealed segment plus the active one, reopened so the
	// registry is decoded from disk rather than carried over.
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, doem.New(base.Clone()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ops := range steps {
		if err := st.Apply(t0.Add(time.Duration(i)*24*time.Hour), ops); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	requireCanonical(t, "segment reopen", d.AllNodeIDs(), st.Graph().OutAll)
}
