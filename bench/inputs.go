package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
	"github.com/extended-dns-errors/edelab/internal/netsim"
	"github.com/extended-dns-errors/edelab/internal/population"
)

// inputs is everything a serving workload sends, generated from the seed
// alone: the served program receives only the framed query bytes.
type inputs struct {
	names []dnswire.Name
	// framed[i] is the query for names[i] with ID 0, behind the two-byte
	// length prefix TCP needs; UDP sends framed[i][2:].
	framed [][]byte
	// draws is the hot mix: operation k sends framed[draws[k mod len]]. Nil
	// for the miss sequence, where operation k sends framed[warm+k] and the
	// sequence ends when the names do.
	draws []uint16
	// warm lists the query indices sent, unrecorded, before measuring: the
	// whole hot set (three times over, see setUpServing), or the head of the
	// miss sequence.
	warm []int
	// ref[i] is the reference answer for query i where refOK[i].
	ref    []answer
	refOK  []bool
	sha256 string
}

// zipfDraws is how many hot-mix operations are pre-drawn; a phase that needs
// more wraps around.
const zipfDraws = 1 << 21

// newInputs shuffles the population's usable domains with the seed and
// builds either the hot mix (hotSet names under Zipf(s) popularity) or the
// never-seen sequence. ClassStale domains are left out: their nameservers
// answer exactly once, so their outcome depends on who asked first.
//
// remote, when set, says which names the cluster's remote replica owns. The
// hot set is then ordered so those names take every third popularity rank:
// with Zipf weights the top few names carry half the traffic, and leaving
// their owners to chance made cluster_hot's forwarded share — and with it
// ops_per_s — swing by a quarter from seed to seed.
func newInputs(p params, pop *population.Population, miss bool, remote func(dnswire.Name) bool) (*inputs, error) {
	rng := rand.New(rand.NewPCG(p.seed, 0x62656e6368)) // "bench"
	doms := make([]*population.Domain, 0, len(pop.Domains))
	for _, d := range pop.Domains {
		if d.Class != population.ClassStale {
			doms = append(doms, d)
		}
	}
	rng.Shuffle(len(doms), func(i, j int) { doms[i], doms[j] = doms[j], doms[i] })
	if len(doms) < p.hotSet+p.missWarm+1 {
		return nil, fmt.Errorf("population of %d is too small", len(doms))
	}

	in := &inputs{}
	if miss {
		doms = doms[p.hotSet:] // the hot set's names stay out of the miss sequence
		for i := 0; i < p.missWarm; i++ {
			in.warm = append(in.warm, i)
		}
	} else {
		doms = doms[:p.hotSet]
		if remote != nil {
			doms = everyThird(doms, func(d *population.Domain) bool { return remote(d.Name) })
		}
		for i := range doms {
			in.warm = append(in.warm, i)
		}
		z := rand.NewZipf(rng, p.zipfS, 1, uint64(p.hotSet-1))
		in.draws = make([]uint16, zipfDraws)
		for i := range in.draws {
			in.draws[i] = uint16(z.Uint64())
		}
	}

	h := sha256.New()
	in.names = make([]dnswire.Name, len(doms))
	in.framed = make([][]byte, len(doms))
	for i, d := range doms {
		q := &dnswire.Message{
			RecursionDesired: true,
			Question:         []dnswire.Question{{Name: d.Name, Type: dnswire.TypeA, Class: dnswire.ClassIN}},
			OPT:              &dnswire.OPT{UDPSize: 1232},
		}
		wire, err := q.AppendPack(make([]byte, 2, 64))
		if err != nil {
			return nil, fmt.Errorf("packing query for %s: %w", d.Name, err)
		}
		binary.BigEndian.PutUint16(wire, uint16(len(wire)-2))
		in.names[i], in.framed[i] = d.Name, wire
		h.Write(wire)
	}
	if err := binary.Write(h, binary.BigEndian, in.draws); err != nil {
		return nil, err
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	in.ref = make([]answer, len(doms))
	in.refOK = make([]bool, len(doms))
	return in, nil
}

// everyThird reorders xs, keeping relative order within each group, so that
// elements satisfying pick sit at positions 2, 5, 8, … for as long as both
// groups last.
func everyThird[T any](xs []T, pick func(T) bool) []T {
	var picked, rest []T
	for _, x := range xs {
		if pick(x) {
			picked = append(picked, x)
		} else {
			rest = append(rest, x)
		}
	}
	out := make([]T, 0, len(xs))
	for len(picked) > 0 || len(rest) > 0 {
		if len(rest) == 0 || (len(out)%3 == 2 && len(picked) > 0) {
			out, picked = append(out, picked[0]), picked[1:]
		} else {
			out, rest = append(out, rest[0]), rest[1:]
		}
	}
	return out
}

// op returns the query index of measured operation k, or false when the
// miss sequence is exhausted.
func (in *inputs) op(k int) (int, bool) {
	if in.draws != nil {
		return int(in.draws[k%len(in.draws)]), true
	}
	k += len(in.warm)
	return k, k < len(in.framed)
}

// buildReference fills the reference table from a twin of the serving stack
// that no client ever loads: h is the twin's frontend, called directly. Hot
// names are asked twice and the second answer kept, because a cached error
// is re-served with EDE 13 added and the measured phases see only hits;
// every refEvery-th miss name is asked once, like the measured query.
func (in *inputs) buildReference(p params, h netsim.Handler) error {
	var idx []int
	asks := 1
	if in.draws != nil {
		asks = 2
		for i := range in.framed {
			idx = append(idx, i)
		}
	} else {
		for i := len(in.warm); i < len(in.framed); i += p.refEvery {
			idx = append(idx, i)
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += workers {
				i := idx[j]
				q, err := dnswire.Unpack(in.framed[i][2:])
				for a := 0; a < asks && err == nil; a++ {
					var resp *dnswire.Message
					if resp, err = h.HandleDNS(context.Background(), q); err == nil {
						in.ref[i] = answerOf(uint16(resp.RCode), resp.EDECodes())
					}
				}
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("reference for %s: %w", in.names[i], err)
					}
					mu.Unlock()
					return
				}
				in.refOK[i] = true
			}
		}(w)
	}
	wg.Wait()
	return first
}

// refCount is how many queries have a reference answer.
func (in *inputs) refCount() int {
	n := 0
	for _, ok := range in.refOK {
		if ok {
			n++
		}
	}
	return n
}

// namesSHA256 identifies campaign_scan's input: the population's names in
// scan order.
func namesSHA256(pop *population.Population) string {
	h := sha256.New()
	for _, d := range pop.Domains {
		h.Write([]byte(d.Name))
	}
	return hex.EncodeToString(h.Sum(nil))
}
