// Pegasus DAX workflow loader: the XML interchange format of the
// Pegasus workflow system ("abstract DAG"), the standard input of the
// workflow-scheduling literature SimDag targets. Jobs become compute
// tasks (runtime is expressed in seconds on a reference machine and is
// converted to flops), and every file produced by one job and consumed
// by another becomes an end-to-end communication task wired between
// them. Synthetic zero-work "root" and "end" synchronization tasks
// bracket the workflow, so the DAG always has a single entry and exit.

package simdag

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// DAXReferenceFlops converts Pegasus job runtimes (seconds on the
// reference machine) to flops: Pegasus assumes a 4.2 Gflop/s machine,
// the same constant SimGrid's DAX loader uses.
const DAXReferenceFlops = 4.2e9

type daxAdag struct {
	Name     string     `xml:"name,attr"`
	Jobs     []daxJob   `xml:"job"`
	Children []daxChild `xml:"child"`
}

type daxJob struct {
	ID      string    `xml:"id,attr"`
	Name    string    `xml:"name,attr"`
	Runtime float64   `xml:"runtime,attr"`
	Uses    []daxUses `xml:"uses"`
}

type daxUses struct {
	File string  `xml:"file,attr"`
	Link string  `xml:"link,attr"`
	Size float64 `xml:"size,attr"`
}

type daxChild struct {
	Ref     string `xml:"ref,attr"`
	Parents []struct {
		Ref string `xml:"ref,attr"`
	} `xml:"parent"`
}

// LoadDAX parses a Pegasus DAX document and instantiates its workflow
// in the simulation: one compute task per job (flops = runtime ×
// DAXReferenceFlops), one comm task per produced-then-consumed file,
// control dependencies from the <child>/<parent> declarations, and
// Seq tasks "root"/"end" wired to the workflow's sources and sinks.
// Every task is returned NotScheduled (comm tasks get their endpoints
// from the scheduler once the computes are placed). A NaN, infinite or
// negative runtime or file size fails with ErrBadSize naming the job
// and file.
func LoadDAX(s *Simulation, r io.Reader) ([]*Task, error) {
	var doc daxAdag
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("simdag: bad DAX: %w", err)
	}
	if len(doc.Jobs) == 0 {
		return nil, fmt.Errorf("simdag: DAX %q declares no jobs", doc.Name)
	}

	byID := make(map[string]*Task, len(doc.Jobs))
	var tasks []*Task
	// producers[file] is the job producing the file; sizes[file] its
	// declared size (the producer's declaration wins over consumers').
	producers := make(map[string]*daxJob)
	producerTask := make(map[string]*Task)
	sizes := make(map[string]float64)
	for i := range doc.Jobs {
		j := &doc.Jobs[i]
		if j.ID == "" {
			return nil, fmt.Errorf("simdag: DAX job #%d has no id", i)
		}
		if byID[j.ID] != nil {
			return nil, fmt.Errorf("simdag: duplicate DAX job id %q", j.ID)
		}
		name := j.ID
		if j.Name != "" {
			name = j.Name + "_" + j.ID
		}
		// Checking the product also catches a runtime whose flops overflow.
		flops := j.Runtime * DAXReferenceFlops
		if !validSize(flops) {
			return nil, fmt.Errorf("%w: DAX job %q runtime %g", ErrBadSize, j.ID, j.Runtime)
		}
		t := s.NewTask(name, flops)
		byID[j.ID] = t
		tasks = append(tasks, t)
		for _, u := range j.Uses {
			if !validSize(u.Size) {
				return nil, fmt.Errorf("%w: DAX job %q file %q size %g", ErrBadSize, j.ID, u.File, u.Size)
			}
			if strings.EqualFold(u.Link, "output") {
				if _, dup := producers[u.File]; !dup {
					producers[u.File] = j
					producerTask[u.File] = t
					sizes[u.File] = u.Size
				}
			} else if _, known := sizes[u.File]; !known {
				sizes[u.File] = u.Size
			}
		}
	}

	// File transfers: producer → comm(file) → consumer.
	for i := range doc.Jobs {
		j := &doc.Jobs[i]
		consumer := byID[j.ID]
		for _, u := range j.Uses {
			if !strings.EqualFold(u.Link, "input") {
				continue
			}
			prod := producerTask[u.File]
			if prod == nil || prod == consumer {
				continue // stage-in file (no producer in this DAG)
			}
			c := s.NewCommTask(u.File+" "+producers[u.File].ID+"->"+j.ID, sizes[u.File])
			tasks = append(tasks, c)
			if err := s.AddDependency(prod, c); err != nil {
				return nil, err
			}
			if err := s.AddDependency(c, consumer); err != nil {
				return nil, err
			}
		}
	}

	// Control dependencies.
	for _, ch := range doc.Children {
		child := byID[ch.Ref]
		if child == nil {
			return nil, fmt.Errorf("simdag: DAX child ref %q unknown", ch.Ref)
		}
		for _, par := range ch.Parents {
			parent := byID[par.Ref]
			if parent == nil {
				return nil, fmt.Errorf("simdag: DAX parent ref %q unknown", par.Ref)
			}
			if err := s.AddDependency(parent, child); err != nil && !errors.Is(err, ErrDuplicate) {
				return nil, err
			}
		}
	}

	// Bracket the workflow with zero-work synchronization tasks.
	root := s.NewSeqTask("root")
	end := s.NewSeqTask("end")
	for _, t := range tasks {
		if !t.hasPreds() {
			if err := s.AddDependency(root, t); err != nil {
				return nil, err
			}
		}
		if !t.hasSuccs() {
			if err := s.AddDependency(t, end); err != nil {
				return nil, err
			}
		}
	}
	return append(tasks, root, end), nil
}
