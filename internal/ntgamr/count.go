package ntgamr

import (
	"encoding/binary"

	"ntga/internal/codec"
	"ntga/internal/core"
	"ntga/internal/mapreduce"
	"ntga/internal/query"
)

// Aggregation pushdown over the implicit representation, as an MR cycle.
// COUNT(*) never needs the expanded bindings: each joined record's
// contribution is the product of its candidate-set sizes (core.CountJoined),
// computed without β-unnesting. The count-fold job maps every final record
// to that number under a single key and sums; the sum Combiner folds partial
// counts on the map side — at every sort-buffer spill and before the shuffle
// — so under a bounded sort buffer the count query spills O(1) bytes per
// map task instead of one count record per joined triplegroup.

// countKey is the single shuffle key of the count-fold job.
var countKey = []byte("n")

// countFoldMapper emits each record's expansion count as a uvarint.
type countFoldMapper struct {
	q *query.Query
}

func (m *countFoldMapper) Map(_ string, record []byte, out mapreduce.Emitter) error {
	s := core.GetScratch()
	defer s.Release()
	comps, err := s.DecodeJoined(record)
	if err != nil {
		return err
	}
	s.Buf = binary.AppendUvarint(s.Buf[:0], uint64(core.CountJoined(m.q, comps)))
	return out.Emit(countKey, s.Buf)
}

// sumCounts is the shared fold: decode and add a batch of uvarint counts.
func sumCounts(values [][]byte) (uint64, error) {
	var sum uint64
	for _, v := range values {
		c, err := codec.NewReader(v).Uvarint()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// countCombiner folds partial counts at spill time (sum is associative and
// commutative, as the Combiner contract requires).
type countCombiner struct{}

func (countCombiner) Combine(_ []byte, values [][]byte) ([][]byte, error) {
	sum, err := sumCounts(values)
	if err != nil {
		return nil, err
	}
	var b codec.Buffer
	b.PutUvarint(sum)
	return [][]byte{b.Bytes()}, nil
}

// countSumReducer streams the (already combined) partial counts into the
// single total record.
type countSumReducer struct{}

func (countSumReducer) Reduce(_ []byte, values mapreduce.ValueIter, out mapreduce.Collector) error {
	var sum uint64
	for {
		v, ok, err := values.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		c, err := codec.NewReader(v).Uvarint()
		if err != nil {
			return err
		}
		sum += c
	}
	var b codec.Buffer
	b.PutUvarint(sum)
	return out.Collect(b.Bytes())
}

// countFoldJob builds the aggregation cycle appended to a COUNT(*) plan.
func countFoldJob(q *query.Query, input, output string) *mapreduce.Job {
	return &mapreduce.Job{
		Name:          "ntga-count",
		Inputs:        []string{input},
		Output:        output,
		Mapper:        &countFoldMapper{q: q},
		Combiner:      countCombiner{},
		StreamReducer: countSumReducer{},
		NumReducers:   1,
	}
}
