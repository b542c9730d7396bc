package podsim

// PaperTable1 holds the published Table 1 values for side-by-side
// comparison in podbench and the benchmark harness.
var PaperTable1 = []Table1Row{
	{Model: "b2", Cores: 128, GlobalBatch: 4096, ThroughputImgPerMs: 57.57, AllReducePct: 2.1},
	{Model: "b2", Cores: 256, GlobalBatch: 8192, ThroughputImgPerMs: 113.73, AllReducePct: 2.6},
	{Model: "b2", Cores: 512, GlobalBatch: 16384, ThroughputImgPerMs: 227.13, AllReducePct: 2.5},
	{Model: "b2", Cores: 1024, GlobalBatch: 32768, ThroughputImgPerMs: 451.35, AllReducePct: 2.81},
	{Model: "b5", Cores: 128, GlobalBatch: 4096, ThroughputImgPerMs: 9.76, AllReducePct: 0.89},
	{Model: "b5", Cores: 256, GlobalBatch: 8192, ThroughputImgPerMs: 19.48, AllReducePct: 1.24},
	{Model: "b5", Cores: 512, GlobalBatch: 16384, ThroughputImgPerMs: 38.55, AllReducePct: 1.24},
	{Model: "b5", Cores: 1024, GlobalBatch: 32768, ThroughputImgPerMs: 77.44, AllReducePct: 1.03},
}

// PaperTable2 holds the published Table 2 peak accuracies, in the same
// order as Table2Configs.
var PaperTable2 = []float64{
	0.801, 0.800, 0.799, 0.795, 0.797, // B2 rows
	0.835, 0.834, 0.834, 0.833, 0.832, 0.830, // B5 rows
}

// PaperHeadlines holds the headline results quoted in the abstract and §4.
var PaperHeadlines = struct {
	// B2 on 1024 cores: 18 minutes to 79.7%.
	B2MinutesTo797 float64
	// B5 on 1024 cores at batch 65536: 1 hour 4 minutes to 83.0%.
	B5MinutesTo830 float64
}{
	B2MinutesTo797: 18,
	B5MinutesTo830: 64,
}
