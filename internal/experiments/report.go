package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// An Exhibit is one bohrbench experiment: its -exp name and a function
// that runs it on a setup and renders the result as text.
type Exhibit struct {
	Name string
	Run  func(Setup) (string, error)
}

// Exhibits lists every exhibit in the order bohrbench runs them. Under an
// open run table (Setup.OpenRunTable) Figures 8, 9, 11 and 13, the fault
// sweep's clean row, Table 7's normal column and Figure 10's Iridium-C
// read runs an earlier exhibit made.
var Exhibits = []Exhibit{
	{"fig6", show(Figure6, titled(FormatQCT, "Figure 6: QCT comparison (random initial placement)", comparison))},
	{"fig7", show(Figure7, titled(FormatQCT, "Figure 7: QCT comparison (locality-aware initial placement)", comparison))},
	{"fig8", show(Figure8, titled(FormatReduction, "Figure 8: intermediate data reduction (random initial placement)", comparison))},
	{"fig9", show(Figure9, titled(FormatReduction, "Figure 9: intermediate data reduction (locality-aware initial placement)", comparison))},
	{"fig10", show(Figure10, titled(FormatQCT, "Figure 10: component benefit in QCT", micro))},
	{"fig11", show(Figure11, titled(FormatReduction, "Figure 11: component benefit in data reduction", micro))},
	{"fig12", show(Figure12, kSweepText("Figure 12: effect of k on data reduction ratio", "%"))},
	{"fig13", show(Figure13, kSweepText("Figure 13: effect of k on QCT", "s"))},
	{"tab2", show(Table2, FormatTable2)},
	{"tab3", show(Table3, FormatTable3)},
	{"tab4", show(Table4, FormatTable4)},
	{"tab5", show(Table5, FormatTable5)},
	{"tab6", show(Table6, FormatTable6)},
	{"tab7", show(Table7, FormatTable7)},
	{"overhead", show(OverheadCubeGeneration, FormatOverhead)},
	{"ablation", show(AblationPlacement, FormatAblation)},
	{"faults", show(FaultSweep, func(rows []FaultSweepRow) string {
		return FormatFaultSweep(rows, comparison)
	})},
}

// show runs an exhibit and renders its rows.
func show[R any](run func(Setup) (R, error), format func(R) string) func(Setup) (string, error) {
	return func(s Setup) (string, error) {
		rows, err := run(s)
		return format(rows), err
	}
}

// The column orders of the comparison and component exhibits.
var (
	comparison = []string{"Iridium", "Iridium-C", "Bohr"}
	micro      = []string{"Iridium-C", "Bohr-Sim", "Bohr-Joint", "Bohr-RDD"}
)

// titled renders rows with FormatQCT or FormatReduction.
func titled[R any](format func(string, R, []string) string, title string, schemes []string) func(R) string {
	return func(rows R) string { return format(title, rows, schemes) }
}

// kSweepText renders rows with FormatKSweep.
func kSweepText(title, unit string) func([]KSweepRow) string {
	return func(rows []KSweepRow) string { return FormatKSweep(title, unit, rows) }
}

// FormatQCT renders QCT rows (Figures 6, 7, 10) as an aligned text table
// with schemes in the given column order.
func FormatQCT(title string, rows []QCTRow, schemes []string) string {
	return formatColumns(title, fmt.Sprintf("%-18s", "Workload"), schemes, 12, "s", rows,
		func(r QCTRow) string { return fmt.Sprintf("%-18s", r.Workload) },
		func(r QCTRow, s string) float64 { return r.QCT[s] })
}

// FormatReduction renders per-site reduction rows (Figures 8, 9, 11).
func FormatReduction(title string, rows []ReductionRow, schemes []string) string {
	return formatColumns(title, fmt.Sprintf("%-12s", "Site"), schemes, 12, "%", rows,
		func(r ReductionRow) string { return fmt.Sprintf("%-12s", r.Site) },
		func(r ReductionRow, s string) float64 { return r.Reduction[s] })
}

// FormatKSweep renders probe-size sweep rows (Figures 12, 13).
func FormatKSweep(title, unit string, rows []KSweepRow) string {
	var series []string
	if len(rows) > 0 {
		for name := range rows[0].Value {
			series = append(series, name)
		}
		sort.Strings(series)
	}
	return formatColumns(title, fmt.Sprintf("%-6s", "k"), series, 18, unit, rows,
		func(r KSweepRow) string { return fmt.Sprintf("%-6d", r.K) },
		func(r KSweepRow, s string) float64 { return r.Value[s] })
}

// formatColumns renders the figures' tables: the title; head and a
// right-aligned header per column, width wide; then per row its label and
// its value in each column, to two decimals, followed by unit.
func formatColumns[R any](title, head string, cols []string, width int, unit string, rows []R,
	label func(R) string, value func(R, string) float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s", title, head)
	for _, c := range cols {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteString("\n")
	for _, r := range rows {
		b.WriteString(label(r))
		for _, c := range cols {
			fmt.Fprintf(&b, "%*.2f%s", width-1, value(r, c), unit)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: dataset attributes and probe allocation\n")
	fmt.Fprintf(&b, "%-12s%-8s%-10s%-18s%-12s\n", "Dataset id", "# dims", "Size", "# probe records", "Check time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d%-8d%-10.2f%-18d%-12.2fs\n", r.DatasetID, r.NumDims, r.SizeGB, r.ProbeRecords, r.CheckTimeSecs)
	}
	return b.String()
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: similarity checking time in pre-processing\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "k=%-5d %.2fs\n", r.K, r.CheckTimeSecs)
	}
	return b.String()
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: RDD similarity checking overhead\n")
	fmt.Fprintf(&b, "%-22s", "# executors")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d", r.Executors)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "RDD similarity check")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9.3fs", r.RDDCheckSecs)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s", "QCT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9.2fs", r.QCTSecs)
	}
	b.WriteString("\n")
	return b.String()
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: LP solving time\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s modeled %.2fs  wall %.2fs\n", r.Workload, r.LPSecs, r.WallSecs)
	}
	return b.String()
}

// FormatTable6 renders Table 6.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("Table 6: per-node storage overhead (GB, 40GB-input units)\n")
	fmt.Fprintf(&b, "%-12s%14s%14s%12s%12s\n", "Scheme", "Storage/node", "For queries", "OLAP cubes", "Sim meta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s%14.2f%14.2f%12.2f%12.2f\n",
			r.Scheme, r.StoragePerNode, r.NeededByQueries, r.OLAPCubes, r.SimilarityMeta)
	}
	return b.String()
}

// FormatTable7 renders Table 7.
func FormatTable7(rows []Table7Row) string {
	var b strings.Builder
	b.WriteString("Table 7: highly dynamic datasets (full-data QCT)\n")
	fmt.Fprintf(&b, "%-18s%10s%10s\n", "Workload", "Normal", "Dynamic")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s%9.2fs%9.2fs\n", r.Workload, r.NormalQCT, r.DynamicQCT)
	}
	return b.String()
}
