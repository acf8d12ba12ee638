package ch

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"opaque/internal/roadnet"
)

// FuzzOverlayRead feeds mutated and truncated OCH1 bytes to Read. Each input
// is decoded twice: as given, and resealed with a recomputed CRC trailer so
// that payload mutations get past the checksum into the structural checks
// and the elimination-tree derivation. Read must return an error or an
// overlay whose point and table queries return without panicking, and
// whose answers agree across the point engine, the table engine and the
// heap sweeps on the same structure.
func FuzzOverlayRead(f *testing.F) {
	g := randomSymmetricGraph(f, 12, 6, false, 7)
	o, err := BuildCustomizable(g)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(o, &buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	p, err := roadnet.BuildPartition(g, roadnet.PartitionConfig{Cells: 3, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	po, err := BuildCustomizablePartitioned(g, p)
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := Write(po, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	oneWay, err := BuildCustomizable(randomSymmetricGraph(f, 8, 3, true, 8))
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := Write(oneWay, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		exerciseDecoded(t, data)
		if len(data) > 4 {
			sealed := append([]byte(nil), data...)
			body := sealed[:len(sealed)-4]
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.ChecksumIEEE(body))
			exerciseDecoded(t, sealed)
		}
	})
}

// exerciseDecoded reads data as an overlay and, when it decodes, runs point
// and table queries between a few nodes on it.
func exerciseDecoded(t *testing.T, data []byte) {
	o, err := Read(bytes.NewReader(data))
	if err != nil {
		return
	}
	n := o.NumNodes()
	nodes := []roadnet.NodeID{0, roadnet.NodeID(n / 2), roadnet.NodeID(n - 1)}
	eng, heapEng := NewEngine(o, nil), NewEngine(heapOnly(o), nil)
	m := NewMTM(o, nil)
	tbl, err := m.Table(nodes, nodes)
	if err != nil {
		t.Fatalf("Table on a decoded overlay: %v", err)
	}
	for i, s := range nodes {
		for j, d := range nodes {
			dist, _, err := eng.Distance(s, d)
			if err != nil {
				t.Fatalf("Distance(%d,%d): %v", s, d, err)
			}
			hd, _, err := heapEng.Distance(s, d)
			if err != nil {
				t.Fatalf("heap Distance(%d,%d): %v", s, d, err)
			}
			if dist != hd || dist != tbl.Dist(i, j) {
				t.Fatalf("pair (%d,%d): point %v, heap point %v, table %v", s, d, dist, hd, tbl.Dist(i, j))
			}
			if p, _, err := eng.Path(s, d); err != nil || p.Cost != dist && len(p.Nodes) > 0 {
				t.Fatalf("Path(%d,%d): cost %v, distance %v (err %v)", s, d, p.Cost, dist, err)
			}
			tbl.Path(i, j)
		}
	}
}
