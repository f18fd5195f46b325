package prov

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"time"
)

// The SQL ExportPROVN issues. FuzzQuery seeds from these constants.
const (
	provnWorkflowsSQL   = "SELECT wkfid, tag, description FROM hworkflow ORDER BY wkfid"
	provnActivitiesSQL  = "SELECT actid, wkfid, tag FROM hactivity ORDER BY actid"
	provnVMsSQL         = "SELECT vmid, count(*) FROM hactivation GROUP BY vmid ORDER BY vmid"
	provnActivationsSQL = "SELECT taskid, actid, wkfid, status, starttime, endtime, vmid FROM hactivation ORDER BY taskid"
	provnFilesSQL       = "SELECT fileid, taskid, fname, fsize, fdir FROM hfile ORDER BY fileid"
)

// The paper's provenance repository follows the W3C PROV family and
// the PROV-Wf extension (§V.C, Missier et al. 2013). ExportPROVN
// serializes the relational store into PROV-N notation, so external
// PROV tooling can consume SciDock provenance:
//
//   - each hactivation row becomes a prov:activity with start/end,
//   - each hfile row becomes a prov:entity generated by its activation,
//   - each VM and the engine itself become prov:agents with
//     wasAssociatedWith links,
//   - workflows become plans the activities are associated with.
func (db *DB) ExportPROVN(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "document")
	fmt.Fprintln(bw, "  prefix scw <http://scidock-go/prov#>")
	fmt.Fprintln(bw, "  agent(scw:SciCumulus, [prov:type=\"prov:SoftwareAgent\"])")

	// Workflows as plans.
	wf, err := db.Query(provnWorkflowsSQL)
	if err != nil {
		return err
	}
	for _, row := range wf.Rows {
		fmt.Fprintf(bw, "  entity(scw:workflow-%d, [prov:type=\"prov:Plan\", scw:tag=%q, scw:description=%q])\n",
			row[0].(int64), row[1].(string), row[2].(string))
	}

	// Activity tags (the workflow's abstract activities).
	acts, err := db.Query(provnActivitiesSQL)
	if err != nil {
		return err
	}
	actTag := map[int64]string{}
	for _, row := range acts.Rows {
		actTag[row[0].(int64)] = row[2].(string)
	}

	// VMs as agents (discovered from activations).
	vms, err := db.Query(provnVMsSQL)
	if err != nil {
		return err
	}
	for _, row := range vms.Rows {
		id := row[0].(string)
		if id == "" || id == "-" {
			continue
		}
		fmt.Fprintf(bw, "  agent(scw:%s, [prov:type=\"scw:VirtualMachine\"])\n", provnID(id))
	}

	// Activations as activities.
	activations, err := db.Query(provnActivationsSQL)
	if err != nil {
		return err
	}
	for _, row := range activations.Rows {
		taskid := row[0].(int64)
		actid := row[1].(int64)
		wkfid := row[2].(int64)
		status := row[3].(string)
		start, _ := row[4].(time.Time)
		end, _ := row[5].(time.Time)
		vmid, _ := row[6].(string)
		fmt.Fprintf(bw, "  activity(scw:activation-%d, %s, %s, [scw:activity=%q, scw:status=%q])\n",
			taskid, provnTime(start), provnTime(end), actTag[actid], status)
		fmt.Fprintf(bw, "  wasAssociatedWith(scw:activation-%d, scw:SciCumulus, scw:workflow-%d)\n",
			taskid, wkfid)
		if vmid != "" && vmid != "-" {
			fmt.Fprintf(bw, "  wasAssociatedWith(scw:activation-%d, scw:%s, -)\n",
				taskid, provnID(vmid))
		}
	}

	// Files as entities generated by their activations.
	files, err := db.Query(provnFilesSQL)
	if err != nil {
		return err
	}
	for _, row := range files.Rows {
		fileid := row[0].(int64)
		taskid := row[1].(int64)
		fmt.Fprintf(bw, "  entity(scw:file-%d, [scw:name=%q, scw:size=\"%d\", scw:dir=%q])\n",
			fileid, row[2].(string), row[3].(int64), row[4].(string))
		fmt.Fprintf(bw, "  wasGeneratedBy(scw:file-%d, scw:activation-%d, -)\n", fileid, taskid)
	}

	fmt.Fprintln(bw, "endDocument")
	return bw.Flush()
}

var provnUnsafe = regexp.MustCompile(`[^A-Za-z0-9_.-]`)

// provnID sanitizes an identifier into a PROV-N qualified-name local
// part.
func provnID(s string) string {
	return provnUnsafe.ReplaceAllString(s, "_")
}

// provnTime formats a timestamp as a PROV-N xsd:dateTime literal, or
// "-" for the zero time.
func provnTime(t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return t.UTC().Format("2006-01-02T15:04:05.000Z")
}
