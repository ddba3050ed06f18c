//! Closed-loop probes: time calls into each layer's *public* functions
//! from outside, with nothing else running.
//!
//! Every probe is a function of an operation count returning host
//! seconds. A probe's value is the **marginal** cost per operation — the
//! slope between a small and a large count — so fixed costs (thread
//! spawn, building a 32-VIC world) cancel instead of being smeared over
//! the operations. Both counts are run [`LOOPS`] times and the slope is
//! taken between the best run of each: like the repetitions of a
//! workload (see `stats`), a probe only ever runs slower than it should.
//!
//! Counts are sized so one slope costs a few tens of milliseconds on the
//! reference host: the whole probe set must fit the acceptance driver's
//! per-run budget, which is why it is not the issue's "≥10⁵ ops or ≥1 s".

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dv_api::world::BlockWrite;
use dv_api::{Aggregator, DvCluster, DvWorld, ReliableFifo, SendMode};
use dv_apps::heat::SerialHeat;
use dv_core::config::DvParams;
use dv_core::metrics::MetricsRegistry;
use dv_core::packet::{Packet, PacketHeader, SCRATCH_GC};
use dv_core::spec::SimSpec;
use dv_core::time::{ns, us, Time};
use dv_kernels::barrier::{barrier_latency_spec, BarrierKind};
use dv_kernels::fft::plan::FftPlan;
use dv_kernels::fft::Complex;
use dv_kernels::graph;
use dv_kernels::gups::{self, GupsConfig};
use dv_sim::{Port, Sim};
use dv_switch::traffic::LoadSweep;
use dv_switch::{AnyTopology, SwitchModel};
use dv_vic::Vic;
use mini_mpi::{MpiCluster, Payload};

use crate::workloads::{self, Inputs, Workload, FFT_N, HEAT, NODES, SWEEP_NETS};

/// Runs per operation count of a probe.
const LOOPS: usize = 5;
/// Seed of the graph the two graph probes run on (any seed will do: the
/// probes are workload-independent by construction).
const PROBE_GRAPH_SEED: u64 = 0x9b0b;

/// One named per-layer number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `<layer>.<what>_<unit>` — the layer is the crate name.
    pub name: String,
    /// Unit, as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The number.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Look a metric up by name.
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} was not measured"))
        .value
}

fn secs(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Fewest seconds `probe()` takes in [`LOOPS`] runs.
fn direct(probe: impl Fn() -> f64) -> f64 {
    (0..LOOPS).map(|_| probe()).fold(f64::INFINITY, f64::min)
}

/// Marginal seconds per operation of `probe` between `lo` and `hi`
/// operations, each at its best.
fn marginal(lo: u64, hi: u64, probe: impl Fn(u64) -> f64) -> f64 {
    let slope = (direct(|| probe(hi)) - direct(|| probe(lo))) / (hi - lo) as f64;
    // A slope can come out slightly negative when the operation is nearly
    // free and the fixed cost jitters; a cost is never below zero.
    slope.max(0.0)
}

// ---------------------------------------------------------------- dv-sim

/// 32 processes interleaving `ctx.delay`: every resume hands the run
/// token to another thread.
fn sim_handoff(ops: u64) -> f64 {
    let sim = Sim::new();
    let per_proc = ops / NODES as u64;
    for me in 0..NODES {
        sim.spawn(format!("delay{me}"), move |ctx| {
            for _ in 0..per_proc {
                ctx.delay(ns(100));
            }
        });
    }
    secs(|| {
        sim.run();
    })
}

/// `sched_smoke`'s pump: each node talks to its own port in a disjoint
/// virtual-time window, so every resume is the `RunSelf` fast path.
fn sim_self_resume(ops: u64) -> f64 {
    let sim = Sim::new();
    let msgs = ops / NODES as u64;
    let window = msgs + 16;
    for me in 0..NODES {
        sim.spawn(format!("pump{me}"), move |ctx| {
            let port: Port<u64> = Port::new();
            ctx.delay(us(me as u64 * window));
            for k in 0..msgs {
                port.send_delayed(ctx, us(1), k);
                black_box(port.recv(ctx));
            }
        });
    }
    secs(|| {
        sim.run();
    })
}

/// `Kernel::call_at` with a no-op closure: schedule, commit, run.
fn sim_call(ops: u64) -> f64 {
    let sim = Sim::new();
    sim.spawn("caller", move |ctx| {
        ctx.with_kernel(|k| {
            for i in 0..ops {
                k.call_at(k.now() + i, |_| {});
            }
        });
    });
    secs(|| {
        sim.run();
    })
}

/// `sched_smoke`'s ring: every message crosses to the right neighbour.
fn sim_port_msg(ops: u64) -> f64 {
    let sim = Sim::new();
    let msgs = ops / NODES as u64;
    let ports: Arc<Vec<Port<u64>>> = Arc::new((0..NODES).map(|_| Port::new()).collect());
    for me in 0..NODES {
        let ports = Arc::clone(&ports);
        sim.spawn(format!("ring{me}"), move |ctx| {
            for k in 0..msgs {
                ports[(me + 1) % NODES].send_delayed(ctx, us(1), k);
                black_box(ports[me].recv(ctx));
            }
        });
    }
    secs(|| {
        sim.run();
    })
}

/// Build a simulation, spawn 32 processes that do nothing, run it.
fn sim_spawn_join(sims: u64) -> f64 {
    secs(|| {
        for _ in 0..sims {
            let sim = Sim::new();
            for me in 0..NODES {
                sim.spawn(format!("idle{me}"), |_| {});
            }
            sim.run();
        }
    })
}

// ---------------------------------------------------------------- dv-api

fn mem_packet(dst: usize, i: u64) -> Packet {
    Packet::new(
        PacketHeader::dv_memory(0, dst, 1024 + (i % 4096) as u32, SCRATCH_GC),
        i,
    )
}

/// `DvWorld::transmit` from node 0 in batches of `batch` packets, delivery
/// closures included (the run drains them).
fn api_transmit(packets: u64, batch: u64) -> f64 {
    let world = DvWorld::from_spec(&SimSpec::new(NODES));
    let sim = Sim::new();
    sim.spawn("sender", move |ctx| {
        for b in 0..packets / batch {
            let dst = 1 + (b as usize) % (NODES - 1);
            let pkts: Vec<Packet> = (0..batch).map(|i| mem_packet(dst, b * batch + i)).collect();
            ctx.with_kernel(|k| world.transmit(k, 0, dst, pkts, k.now()));
            // Let deliveries commit, so the event queue stays as shallow
            // as it is in a real run.
            if b % 32 == 31 {
                ctx.delay(us(100));
            }
        }
    });
    secs(|| {
        sim.run();
    })
}

/// `DvWorld::transmit_blocks` in 1024-word blocks (the DMA path).
fn api_transmit_blocks(words: u64) -> f64 {
    const BLOCK: u64 = 1024;
    let world = DvWorld::from_spec(&SimSpec::new(NODES));
    let sim = Sim::new();
    sim.spawn("sender", move |ctx| {
        for b in 0..words / BLOCK {
            let dest = 1 + (b as usize) % (NODES - 1);
            let block = BlockWrite {
                dest,
                address: 4096,
                gc: SCRATCH_GC,
                words: vec![b; BLOCK as usize],
            };
            ctx.with_kernel(|k| world.transmit_blocks(k, 0, dest, vec![block], k.now()));
            if b % 32 == 31 {
                ctx.delay(us(100));
            }
        }
    });
    secs(|| {
        sim.run();
    })
}

/// Two nodes: 64-word `send_fifo` bursts one way, each word popped by
/// `fifo_recv`, one acknowledging word back per burst.
fn api_send_fifo(words: u64) -> f64 {
    const BURST: usize = 64;
    let bursts = words / BURST as u64;
    let cluster = DvCluster::from_spec(SimSpec::new(2));
    secs(|| {
        cluster.run(move |dv, ctx| {
            let burst = [7u64; BURST];
            for _ in 0..bursts {
                if dv.node() == 0 {
                    dv.send_fifo(
                        ctx,
                        1,
                        &burst,
                        SCRATCH_GC,
                        SendMode::Dma {
                            cached_headers: true,
                        },
                    );
                    black_box(dv.fifo_recv(ctx));
                } else {
                    for _ in 0..BURST {
                        black_box(dv.fifo_recv(ctx));
                    }
                    dv.send_fifo(
                        ctx,
                        0,
                        &[1],
                        SCRATCH_GC,
                        SendMode::DirectWrite {
                            cached_headers: true,
                        },
                    );
                }
            }
        });
    })
}

/// The path every word of the irregular DV kernels takes: node 0 sends
/// distinct surprise-FIFO words to node 1 through a 1024-packet
/// `Aggregator`, paced like GUPS (flush and `fast_barrier` after every
/// bucket, the receiver draining behind it). With `reliable` the words go
/// in through `ReliableFifo::send` and come out of `drain_unique`, as in
/// the kernels; without, through `Aggregator::push` and `fifo_drain`. The
/// difference is the recovery layer's own work: one log entry and two
/// ordered-set insertions per word.
fn api_fifo_stream(words: u64, reliable: bool) -> f64 {
    const BUCKET: u64 = 1024;
    let cluster = DvCluster::from_spec(SimSpec::new(2));
    secs(|| {
        cluster.run(move |dv, ctx| {
            let mut rel = ReliableFifo::new(dv);
            let mut agg = Aggregator::new(BUCKET as usize);
            for bucket in 0..words / BUCKET {
                if dv.node() == 0 {
                    for i in bucket * BUCKET..(bucket + 1) * BUCKET {
                        // Distinct and scattered, as GUPS's LFSR words are.
                        let word = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        if reliable {
                            rel.send(ctx, dv, &mut agg, 1, word);
                        } else {
                            let header = PacketHeader::fifo(0, 1, SCRATCH_GC);
                            agg.push(ctx, dv, Packet::new(header, word));
                        }
                    }
                    agg.flush(ctx, dv);
                }
                dv.fast_barrier(ctx);
                if dv.node() == 1 {
                    if reliable {
                        black_box(rel.drain_unique(ctx, dv));
                    } else {
                        while !black_box(dv.fifo_drain(ctx, 4096)).is_empty() {}
                    }
                }
            }
        });
    })
}

/// GUPS's send path without the recovery layer: node 0 pushes packets for
/// rotating destinations into a 1024-packet `Aggregator`.
fn api_aggregator_push(packets: u64) -> f64 {
    let cluster = DvCluster::from_spec(SimSpec::new(NODES));
    secs(|| {
        cluster.run(move |dv, ctx| {
            if dv.node() != 0 {
                return;
            }
            let mut agg = Aggregator::new(1024);
            for i in 0..packets {
                let dst = 1 + (i as usize) % (NODES - 1);
                agg.push(ctx, dv, mem_packet(dst, i));
            }
            agg.flush(ctx, dv);
        });
    })
}

/// Host seconds of `reps` back-to-back 32-node barriers of one kind.
fn barrier_host(kind: BarrierKind, reps: u64) -> f64 {
    secs(|| {
        black_box(barrier_latency_spec(
            kind,
            SimSpec::new(NODES),
            reps as usize,
        ));
    })
}

fn api_world_new(worlds: u64) -> f64 {
    let spec = SimSpec::new(NODES);
    secs(|| {
        for _ in 0..worlds {
            black_box(DvWorld::from_spec(&spec));
        }
    })
}

// ---------------------------------------------------------------- dv-vic

/// Which address space a `Vic::deliver` probe exercises.
#[derive(Clone, Copy)]
enum Deliver {
    /// DV-memory write, scratch group counter.
    Mem,
    /// Surprise-FIFO push (popped again at once, so the FIFO never fills).
    Fifo,
    /// DV-memory write that also decrements a real group counter.
    Gc,
}

fn vic_deliver(packets: u64, kind: Deliver) -> f64 {
    const GC: u8 = 5;
    let sim = Sim::new();
    let mut vic = Vic::from_parts(1, &DvParams::default(), None);
    sim.with_kernel(|k| {
        vic.set_counter(k, GC, packets);
        secs(|| {
            for i in 0..packets {
                let addr = 1024 + (i % 4096) as u32;
                let header = match kind {
                    Deliver::Mem => PacketHeader::dv_memory(0, 1, addr, SCRATCH_GC),
                    Deliver::Fifo => PacketHeader::fifo(0, 1, SCRATCH_GC),
                    Deliver::Gc => PacketHeader::dv_memory(0, 1, addr, GC),
                };
                black_box(vic.deliver(k, 0, Packet::new(header, i)));
                if matches!(kind, Deliver::Fifo) {
                    black_box(vic.fifo.pop());
                }
            }
        })
    })
}

/// `Vic::deliver_block` in 1024-word blocks (what `transmit_blocks` calls).
fn vic_deliver_block(words: u64) -> f64 {
    let sim = Sim::new();
    let mut vic = Vic::from_parts(1, &DvParams::default(), None);
    let block = vec![3u64; 1024];
    sim.with_kernel(|k| {
        secs(|| {
            for _ in 0..words / 1024 {
                vic.deliver_block(k, 4096, black_box(&block), SCRATCH_GC);
            }
        })
    })
}

fn vic_new(vics: u64) -> f64 {
    let dv = DvParams::default();
    secs(|| {
        for _ in 0..vics {
            black_box(Vic::from_parts(0, &dv, None));
        }
    })
}

// -------------------------------------------------------------- mini-mpi

/// Two-rank ping-pong of `words`-word payloads; `msgs` messages in all.
fn mpi_pingpong(msgs: u64, words: usize, spec: SimSpec) -> f64 {
    let cluster = MpiCluster::from_spec(spec);
    secs(|| {
        cluster.run(move |comm, ctx| {
            let payload = Payload::from(vec![0u64; words]);
            let peer = 1 - comm.rank();
            for _ in 0..msgs / 2 {
                if comm.rank() == 0 {
                    comm.send(ctx, peer, 1, payload.clone());
                    black_box(comm.recv_from(ctx, peer, 1));
                } else {
                    black_box(comm.recv_from(ctx, peer, 1));
                    comm.send(ctx, peer, 1, payload.clone());
                }
            }
        });
    })
}

/// `calls` 32-rank alltoalls of 1 KiB blocks (992 messages each).
fn mpi_alltoall(calls: u64, spec: SimSpec) -> f64 {
    let cluster = MpiCluster::from_spec(spec);
    secs(|| {
        cluster.run(move |comm, ctx| {
            for _ in 0..calls {
                let blocks = (0..NODES).map(|_| Payload::from(vec![0u64; 128])).collect();
                black_box(comm.alltoall(ctx, blocks));
            }
        });
    })
}

/// Scheduler events one message causes: `(sim.sched.resumes,
/// sim.sched.calls)` per `mpi.msgs`, from the difference between two
/// instrumented runs of `probe` (so start-up events cancel). Exact.
fn events_per_msg(
    lo: u64,
    hi: u64,
    probe: impl Fn(u64, SimSpec) -> f64,
    nodes: usize,
) -> (f64, f64) {
    let events = |ops: u64| {
        let registry = Arc::new(MetricsRegistry::enabled());
        probe(ops, SimSpec::new(nodes).metrics(Arc::clone(&registry)));
        let snap = registry.snapshot();
        let total = |name: &str| snap.counter_total(name) as f64;
        (
            total("sim.sched.resumes"),
            total("sim.sched.calls"),
            total("mpi.msgs"),
        )
    };
    let (r0, c0, m0) = events(lo);
    let (r1, c1, m1) = events(hi);
    ((r1 - r0) / (m1 - m0), (c1 - c0) / (m1 - m0))
}

// ------------------------------------------------------------- dv-switch

fn switch_model_traversal(ops: u64) -> f64 {
    let model = SwitchModel::from_params(&DvParams::default());
    secs(|| {
        let mut acc: Time = 0;
        for i in 0..ops as usize {
            acc = acc.wrapping_add(model.traversal(i % NODES, (i * 7) % NODES, black_box(0.3)));
        }
        black_box(acc);
    })
}

/// One loaded (0.9 offered, uniform) `LoadSweep` point of `cycles`
/// measured cycles on `net`.
fn switch_cycles(net: &AnyTopology, cycles: u64) -> f64 {
    let mut sweep = LoadSweep::for_net(net.clone());
    sweep.measure = cycles;
    secs(|| {
        black_box(sweep.run(0.9));
    })
}

fn switch_topo_build() -> f64 {
    secs(|| {
        for (kind, ports, _) in SWEEP_NETS {
            black_box(AnyTopology::for_ports(kind, ports));
        }
    })
}

// ------------------------------------------------- dv-kernels / dv-apps

fn kernels_gups_updates(updates: u64) -> f64 {
    let cfg = GupsConfig {
        table_per_node: 1 << 13,
        updates_per_node: (updates / NODES as u64) as usize,
        bucket: 1024,
        stream_offset: 1 << 20,
    };
    secs(|| {
        black_box(gups::serial_reference(&cfg, NODES));
    })
}

fn kernels_fft() -> f64 {
    let plan = FftPlan::new(FFT_N, NODES);
    secs(|| {
        black_box(plan.serial_reference(|i| Complex::new((i as f64 * 0.7311).sin(), 0.5)));
    })
}

fn apps_heat_steps(steps: u64) -> f64 {
    let mut heat = SerialHeat::new(&HEAT);
    secs(|| {
        for _ in 0..steps {
            heat.step();
        }
        black_box(heat.total_heat());
    })
}

// --------------------------------------------------------------- dv-core

fn core_metrics_incr(ops: u64, registry: &MetricsRegistry) -> f64 {
    secs(|| {
        for _ in 0..ops {
            registry.incr("probe.counter", black_box(1));
        }
    })
}

/// Run every probe. Workload-independent: the same set is reported under
/// every workload, because each workload's ledger prices its counts with
/// these numbers.
pub fn run_all() -> Vec<Metric> {
    let ns_per = |s: f64| s * 1e9;
    let us_per = |s: f64| s * 1e6;
    let ms_per = |s: f64| s * 1e3;
    let mut out = Vec::new();
    let mut push =
        |name: &str, unit: &'static str, value: f64| out.push(Metric::new(name, unit, value));

    push(
        "dv-sim.handoff_ns",
        "ns",
        ns_per(marginal(320, 1_600, sim_handoff)),
    );
    push(
        "dv-sim.self_resume_ns",
        "ns",
        ns_per(marginal(6_400, 32_000, sim_self_resume)),
    );
    push(
        "dv-sim.call_ns",
        "ns",
        ns_per(marginal(20_000, 100_000, sim_call)),
    );
    push(
        "dv-sim.port_msg_ns",
        "ns",
        ns_per(marginal(320, 1_600, sim_port_msg)),
    );
    push(
        "dv-sim.spawn_join_us",
        "us",
        us_per(marginal(2, 10, sim_spawn_join)),
    );

    push(
        "dv-api.transmit_b1_ns",
        "ns",
        ns_per(marginal(4_096, 20_480, |n| api_transmit(n, 1))),
    );
    push(
        "dv-api.transmit_b1024_ns",
        "ns",
        ns_per(marginal(65_536, 327_680, |n| api_transmit(n, 1024))),
    );
    push(
        "dv-api.transmit_blocks_ns",
        "ns",
        ns_per(marginal(1 << 18, 5 << 18, api_transmit_blocks)),
    );
    push(
        "dv-api.send_fifo_ns",
        "ns",
        ns_per(marginal(1_280, 6_400, api_send_fifo)),
    );
    push(
        "dv-api.aggregator_push_ns",
        "ns",
        ns_per(marginal(32_768, 163_840, api_aggregator_push)),
    );
    // Set sizes of 4 k to 20 k words: a node of `dv_irregular` holds 16 k.
    let stream = |reliable| marginal(4_096, 20_480, move |n| api_fifo_stream(n, reliable));
    push(
        "dv-api.reliable_word_ns",
        "ns",
        ns_per((stream(true) - stream(false)).max(0.0)),
    );
    push(
        "dv-api.barrier_host_us",
        "us",
        us_per(marginal(2, 10, |r| {
            barrier_host(BarrierKind::DvIntrinsic, r)
        })),
    );
    push(
        "dv-api.fast_barrier_host_us",
        "us",
        us_per(marginal(2, 10, |r| barrier_host(BarrierKind::DvFast, r))),
    );
    push(
        "dv-api.world_new_ms",
        "ms",
        ms_per(marginal(1, 5, api_world_new)),
    );

    push(
        "dv-vic.deliver_mem_ns",
        "ns",
        ns_per(marginal(100_000, 500_000, |n| vic_deliver(n, Deliver::Mem))),
    );
    push(
        "dv-vic.deliver_fifo_ns",
        "ns",
        ns_per(marginal(100_000, 500_000, |n| {
            vic_deliver(n, Deliver::Fifo)
        })),
    );
    push(
        "dv-vic.deliver_gc_ns",
        "ns",
        ns_per(marginal(100_000, 500_000, |n| vic_deliver(n, Deliver::Gc))),
    );
    push(
        "dv-vic.deliver_block_ns",
        "ns",
        ns_per(marginal(1 << 20, 5 << 20, vic_deliver_block)),
    );
    push("dv-vic.new_ms", "ms", ms_per(marginal(2, 10, vic_new)));

    let eager = |n: u64, spec: SimSpec| mpi_pingpong(n, 8, spec);
    let rndv = |n: u64, spec: SimSpec| mpi_pingpong(n, 1 << 17, spec);
    push(
        "mini-mpi.eager_msg_host_us",
        "us",
        us_per(marginal(200, 1_000, |n| eager(n, SimSpec::new(2)))),
    );
    push(
        "mini-mpi.rndv_msg_host_us",
        "us",
        us_per(marginal(8, 40, |n| rndv(n, SimSpec::new(2)))),
    );
    // One call is 992 messages and a third of a second: the fixed cost
    // (32 thread spawns, about 3 ms) is 1 % of it, so no slope is taken.
    push(
        "mini-mpi.alltoall32_host_ms",
        "ms",
        ms_per(direct(|| mpi_alltoall(1, SimSpec::new(NODES)))),
    );
    push(
        "mini-mpi.barrier32_host_us",
        "us",
        us_per(marginal(1, 3, |r| barrier_host(BarrierKind::Mpi, r))),
    );
    let (resumes, calls) = events_per_msg(1, 2, mpi_alltoall, NODES);
    push("mini-mpi.alltoall32_resumes_per_msg", "count", resumes);
    push("mini-mpi.alltoall32_calls_per_msg", "count", calls);
    let (resumes, calls) = events_per_msg(8, 40, rndv, 2);
    push("mini-mpi.rndv_resumes_per_msg", "count", resumes);
    push("mini-mpi.rndv_calls_per_msg", "count", calls);

    push(
        "dv-switch.model_traversal_ns",
        "ns",
        ns_per(marginal(200_000, 1_000_000, switch_model_traversal)),
    );
    for ((kind, ports, measure), name) in SWEEP_NETS.into_iter().zip([
        "dv-switch.vortex64_cycle_ns",
        "dv-switch.vortex1024_cycle_ns",
        "dv-switch.vortex4096_cycle_ns",
        "dv-switch.fattree1024_cycle_ns",
        "dv-switch.minpath1024_cycle_ns",
    ]) {
        let net = AnyTopology::for_ports(kind, ports);
        // A tenth and a half of the workload's measured cycles.
        let per_cycle = marginal(measure / 10, measure / 2, |c| switch_cycles(&net, c));
        push(name, "ns", ns_per(per_cycle));
    }
    push(
        "dv-switch.topo_build_ms",
        "ms",
        ms_per(direct(switch_topo_build)),
    );

    let Inputs::Irregular(graph_inputs) = workloads::setup(Workload::DvIrregular, PROBE_GRAPH_SEED)
    else {
        unreachable!("dv_irregular has irregular inputs");
    };
    let root = graph_inputs.roots[0];
    let (parents, _) = graph::serial_bfs(&graph_inputs.csr, root);
    push(
        "dv-kernels.gups_update_ns",
        "ns",
        ns_per(marginal(1 << 17, 5 << 17, kernels_gups_updates)),
    );
    push(
        "dv-kernels.fft_point_ns",
        "ns",
        ns_per(direct(kernels_fft)) / FFT_N as f64,
    );
    push(
        "dv-kernels.bfs_validate_ms",
        "ms",
        ms_per(direct(|| {
            secs(|| {
                graph::validate_bfs(&graph_inputs.csr, root, &parents)
                    .expect("serial tree is valid")
            })
        })),
    );
    push(
        "dv-kernels.graph_build_ms",
        "ms",
        ms_per(direct(|| {
            secs(|| {
                black_box(workloads::build_graph(PROBE_GRAPH_SEED));
            })
        })),
    );
    let cells = (HEAT.n.0 * HEAT.n.1 * HEAT.n.2) as f64;
    push(
        "dv-apps.heat_cell_step_ns",
        "ns",
        ns_per(marginal(4, 20, apps_heat_steps)) / cells,
    );

    let (enabled, disabled) = (MetricsRegistry::enabled(), MetricsRegistry::disabled());
    push(
        "dv-core.metrics_incr_ns",
        "ns",
        ns_per(marginal(40_000, 200_000, |n| {
            core_metrics_incr(n, &enabled)
        })),
    );
    push(
        "dv-core.metrics_disabled_ns",
        "ns",
        ns_per(marginal(2_000_000, 10_000_000, |n| {
            core_metrics_incr(n, &disabled)
        })),
    );
    out
}
