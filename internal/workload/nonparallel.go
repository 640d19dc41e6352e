package workload

import (
	"atcsched/internal/metrics"
	"atcsched/internal/rng"
	"atcsched/internal/sim"
	"atcsched/internal/vmm"
)

// CPUJobProfile describes a SPEC-CPU-2006-like batch job: a long warm
// compute with a given cache sensitivity. The paper uses gcc, bzip2 and
// sphinx3; their relative cache behaviour is what matters for Figures 9
// and 14.
type CPUJobProfile struct {
	Name      string
	Work      sim.Time // warm compute per round
	Footprint int64
	ColdRate  float64
}

// SPECProfiles returns the three CPU-intensive jobs the paper runs.
// sphinx3 is the most cache-hungry (the paper shows it degrading most
// under short slices), gcc intermediate, bzip2 the least.
func SPECProfiles() []CPUJobProfile {
	return []CPUJobProfile{
		{Name: "gcc", Work: 400 * sim.Millisecond, Footprint: 1 << 20, ColdRate: 0.60},
		{Name: "bzip2", Work: 400 * sim.Millisecond, Footprint: 640 << 10, ColdRate: 0.75},
		{Name: "sphinx3", Work: 400 * sim.Millisecond, Footprint: 2 << 20, ColdRate: 0.45},
	}
}

// CPUJob runs a profile in a loop on one VCPU and records per-round
// completion times.
type CPUJob struct {
	Profile CPUJobProfile
	eng     *sim.Engine
	times   metrics.Welford
	start   sim.Time
}

// NewCPUJob installs the job on v. Call before World.Start.
func NewCPUJob(v *vmm.VCPU, p CPUJobProfile) *CPUJob {
	eng := v.VM().Node().Engine()
	j := &CPUJob{Profile: p, eng: eng}
	v.SetCacheProfile(p.Footprint, p.ColdRate)
	mk := func() vmm.Process {
		j.start = eng.Now()
		return &SeqActions{Actions: []vmm.Action{vmm.Compute(p.Work)}}
	}
	v.SetProcess(mk(), func(*vmm.VCPU) vmm.Process {
		j.times.Add((eng.Now() - j.start).Seconds())
		return mk()
	})
	return j
}

// MeanTime returns the mean round completion time in seconds.
func (j *CPUJob) MeanTime() float64 { return j.times.Mean() }

// Rounds returns completed rounds.
func (j *CPUJob) Rounds() int64 { return j.times.N() }

// StreamJob models the stream memory-bandwidth benchmark: rounds of
// bandwidth-bound compute whose large, low-reuse working set makes it
// mildly sensitive to context-switch-induced cache flushes (Figures 9
// and 13 show only slight degradation).
type StreamJob struct {
	eng   *sim.Engine
	times metrics.Welford
	start sim.Time
	// BytesPerRound is the nominal data volume one round streams, used
	// to report a bandwidth figure.
	BytesPerRound float64
}

// NewStreamJob installs the job on v.
func NewStreamJob(v *vmm.VCPU) *StreamJob {
	eng := v.VM().Node().Engine()
	j := &StreamJob{eng: eng, BytesPerRound: 400e6} // 400 MB per 100 ms round warm
	v.SetCacheProfile(1<<20, 0.88)
	work := 100 * sim.Millisecond
	mk := func() vmm.Process {
		j.start = eng.Now()
		return &SeqActions{Actions: []vmm.Action{vmm.Compute(work)}}
	}
	v.SetProcess(mk(), func(*vmm.VCPU) vmm.Process {
		j.times.Add((eng.Now() - j.start).Seconds())
		return mk()
	})
	return j
}

// BandwidthMBps returns the achieved bandwidth in MB/s.
func (j *StreamJob) BandwidthMBps() float64 {
	if j.times.N() == 0 || j.times.Mean() == 0 {
		return 0
	}
	return j.BytesPerRound / j.times.Mean() / 1e6
}

// Rounds returns completed rounds.
func (j *StreamJob) Rounds() int64 { return j.times.N() }

// DiskJob models bonnie++'s sequential block I/O: a loop of 1 MiB disk
// requests through the dom0 blkback path.
type DiskJob struct {
	eng       *sim.Engine
	start     sim.Time
	bytes     uint64
	reqSize   int
	completed uint64
}

// NewDiskJob installs the job on v.
func NewDiskJob(v *vmm.VCPU) *DiskJob {
	eng := v.VM().Node().Engine()
	j := &DiskJob{eng: eng, start: eng.Now(), reqSize: 1 << 20}
	v.SetCacheProfile(64<<10, 0.9)
	mk := func() vmm.Process {
		return &SeqActions{Actions: []vmm.Action{
			{Kind: vmm.ActDisk, Size: j.reqSize, Then: func() {
				j.bytes += uint64(j.reqSize)
				j.completed++
			}},
			vmm.Compute(200 * sim.Microsecond), // buffer handling
		}}
	}
	v.SetProcess(mk(), func(*vmm.VCPU) vmm.Process { return mk() })
	return j
}

// ResetStats discards accumulated bytes and restarts the measurement
// clock — call at the start of the steady-state window so the
// throughput figure covers a fixed-length interval.
func (j *DiskJob) ResetStats() {
	j.bytes = 0
	j.completed = 0
	j.start = j.eng.Now()
}

// ThroughputMBps returns achieved disk throughput in MB/s.
func (j *DiskJob) ThroughputMBps() float64 {
	el := (j.eng.Now() - j.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(j.bytes) / el / 1e6
}

// Requests returns completed requests.
func (j *DiskJob) Requests() uint64 { return j.completed }

// PingJob measures round-trip time between two VMs: the client sends a
// 64-byte probe, the echo VM returns it, and the client records the RTT
// then idles for an interval — the paper's latency-sensitive probe.
type PingJob struct {
	eng *sim.Engine
	rtt metrics.Welford
	p99 *metrics.P2Quantile
}

// NewPingJob installs a client process on client.VCPU(clientRank) and an
// echo process on echo.VCPU(echoRank). Interval is the probe spacing.
func NewPingJob(client *vmm.VM, clientRank int, echo *vmm.VM, echoRank int, interval sim.Time) *PingJob {
	eng := client.Node().Engine()
	j := &PingJob{eng: eng, p99: metrics.NewP2Quantile(0.99)}
	client.VCPU(clientRank).SetCacheProfile(64<<10, 0.95)
	echo.VCPU(echoRank).SetCacheProfile(64<<10, 0.95)
	client.LatencySensitive = true
	echo.LatencySensitive = true

	seq := 0
	var sentAt sim.Time
	mkClient := func() vmm.Process {
		seq++
		s := seq
		return &SeqActions{Actions: []vmm.Action{
			vmm.Sleep(interval),
			vmm.Action{Kind: vmm.ActSend, Dst: echo, DstProc: echoRank, Tag: 2 * s, Size: 64,
				Then: func() { sentAt = eng.Now() }},
			vmm.Action{Kind: vmm.ActRecv, Tag: 2*s + 1,
				Then: func() {
					rtt := (eng.Now() - sentAt).Seconds()
					j.rtt.Add(rtt)
					j.p99.Add(rtt)
				}},
		}}
	}
	client.VCPU(clientRank).SetProcess(mkClient(), func(*vmm.VCPU) vmm.Process { return mkClient() })

	eseq := 0
	mkEcho := func() vmm.Process {
		eseq++
		s := eseq
		return &SeqActions{Actions: []vmm.Action{
			vmm.Recv(2 * s),
			vmm.Send(client, clientRank, 2*s+1, 64),
		}}
	}
	echo.VCPU(echoRank).SetProcess(mkEcho(), func(*vmm.VCPU) vmm.Process { return mkEcho() })
	return j
}

// MeanRTT returns the mean round-trip time in seconds.
func (j *PingJob) MeanRTT() float64 { return j.rtt.Mean() }

// P99RTT returns the estimated 99th-percentile round-trip time.
func (j *PingJob) P99RTT() float64 { return j.p99.Value() }

// MaxRTT returns the worst observed round-trip time.
func (j *PingJob) MaxRTT() float64 { return j.rtt.Max() }

// Probes returns the number of completed probes.
func (j *PingJob) Probes() int64 { return j.rtt.N() }

// WebJob models an Apache-like server under an httperf-like closed-loop
// client: the client thinks (exponential), sends a request, and waits
// for the response; the server receives, does a small service compute,
// and replies. The metric is the mean response time (Figure 13).
type WebJob struct {
	eng  *sim.Engine
	resp metrics.Welford
	p99  *metrics.P2Quantile
}

// NewWebJob installs the server on server.VCPU(serverRank) and the load
// generator on client.VCPU(clientRank). thinkMean is the client's mean
// think time; service is the server's per-request compute.
func NewWebJob(client *vmm.VM, clientRank int, server *vmm.VM, serverRank int, thinkMean, service sim.Time, seed uint64) *WebJob {
	eng := client.Node().Engine()
	j := &WebJob{eng: eng, p99: metrics.NewP2Quantile(0.99)}
	server.LatencySensitive = true
	server.VCPU(serverRank).SetCacheProfile(512<<10, 0.8)
	client.VCPU(clientRank).SetCacheProfile(64<<10, 0.95)
	src := rng.NewStream(seed, 0xeb)

	seq := 0
	var sentAt sim.Time
	mkClient := func() vmm.Process {
		seq++
		s := seq
		think := sim.Time(src.Exp(float64(thinkMean)))
		return &SeqActions{Actions: []vmm.Action{
			vmm.Sleep(think),
			vmm.Action{Kind: vmm.ActSend, Dst: server, DstProc: serverRank, Tag: 2 * s, Size: 512,
				Then: func() { sentAt = eng.Now() }},
			vmm.Action{Kind: vmm.ActRecv, Tag: 2*s + 1,
				Then: func() {
					r := (eng.Now() - sentAt).Seconds()
					j.resp.Add(r)
					j.p99.Add(r)
				}},
		}}
	}
	client.VCPU(clientRank).SetProcess(mkClient(), func(*vmm.VCPU) vmm.Process { return mkClient() })

	sseq := 0
	mkServer := func() vmm.Process {
		sseq++
		s := sseq
		return &SeqActions{Actions: []vmm.Action{
			vmm.Recv(2 * s),
			vmm.Compute(service),
			vmm.Send(client, clientRank, 2*s+1, 8192),
		}}
	}
	server.VCPU(serverRank).SetProcess(mkServer(), func(*vmm.VCPU) vmm.Process { return mkServer() })
	return j
}

// MeanResponse returns the mean response time in seconds.
func (j *WebJob) MeanResponse() float64 { return j.resp.Mean() }

// P99Response returns the estimated 99th-percentile response time.
func (j *WebJob) P99Response() float64 { return j.p99.Value() }

// Requests returns the number of completed requests.
func (j *WebJob) Requests() int64 { return j.resp.N() }

// SeqActions is a one-shot action sequence process (exported for reuse
// by examples and the cluster assembly).
type SeqActions struct {
	Actions []vmm.Action
	i       int
}

// Next implements vmm.Process.
func (p *SeqActions) Next() vmm.Action {
	if p.i >= len(p.Actions) {
		return vmm.Done()
	}
	a := p.Actions[p.i]
	p.i++
	return a
}
