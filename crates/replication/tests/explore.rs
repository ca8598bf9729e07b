//! Explorer integration tests: both planted bugs found at minimal depth
//! (and strictly faster than chaos sampling), witness specs that replay
//! byte-identically across thread counts, POR-soundness A/B runs, and
//! the sound protocol exploring clean to its depth budget — also under a
//! crash and a drop budget, whose witness specs replay under them.

use quorumcc_core::parallel::map_indexed;
use quorumcc_core::DependencyRelation;
use quorumcc_model::testtypes::{QInv, TestQueue};
use quorumcc_replication::chaos::{self, ChaosConfig};
use quorumcc_replication::explore::{
    explore_workload, replay_setup, replay_workload, ExploreSetup, ExploreSpec, Knob,
};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::types::ObjId;
use quorumcc_replication::Transaction;
use quorumcc_sim::ExploreConfig;

fn queue_protocol(mode: Mode) -> Protocol {
    Protocol::new(mode, DependencyRelation::full::<TestQueue>())
}

fn txn(ops: &[QInv]) -> Vec<Transaction<QInv>> {
    vec![Transaction {
        ops: ops.iter().map(|i| (ObjId(0), i.clone())).collect(),
    }]
}

/// The canonical skip-final-ack witness shape: two sites, two clients
/// racing an enqueue against a dequeue on one object. Committing the
/// write at send time lets the commit outrun its own log entries — a
/// lost write the oracle sees at the first commit boundary.
fn skip_ack_shape() -> (ExploreSetup, Vec<Vec<Transaction<QInv>>>) {
    let setup = ExploreSetup {
        sites: 2,
        clients: 2,
        knob: Knob::SkipFinalAck,
        ..ExploreSetup::default()
    };
    let workload = vec![txn(&[QInv::Enq(7)]), txn(&[QInv::Deq])];
    (setup, workload)
}

/// The canonical weaken witness shape: *three* sites (at two, the
/// weakened initial threshold 1 still intersects the final quorum 2,
/// since 1 + 2 > 2 — the bug is unobservable), two clients racing an
/// enqueue against a dequeue.
fn weaken_shape() -> (ExploreSetup, Vec<Vec<Transaction<QInv>>>) {
    let setup = ExploreSetup {
        sites: 3,
        clients: 2,
        narrow: true,
        knob: Knob::WeakenReadQuorum,
        ..ExploreSetup::default()
    };
    let workload = vec![txn(&[QInv::Enq(7)]), txn(&[QInv::Deq])];
    (setup, workload)
}

fn deep_cfg() -> ExploreConfig {
    ExploreConfig {
        max_depth: 40,
        ..ExploreConfig::default()
    }
}

/// How many plans a 200-plan chaos sweep needs before the first
/// violation (200 if it never finds one).
fn chaos_plans_to_first_violation(knob: Knob) -> u64 {
    let cfg = ChaosConfig {
        weaken_read_quorum: knob == Knob::WeakenReadQuorum,
        skip_final_ack: knob == Knob::SkipFinalAck,
        ..ChaosConfig::default()
    };
    let outcomes = chaos::sweep::<TestQueue>(&queue_protocol(Mode::Hybrid), &cfg, 0xC0FFEE, 200, 1);
    outcomes
        .iter()
        .position(|o| !o.violations.is_empty())
        .map_or(200, |i| i as u64 + 1)
    // position is the 0-based plan index; +1 = plans *run* to find it.
}

#[test]
fn explorer_finds_skip_final_ack_minimally() {
    let (setup, workload) = skip_ack_shape();
    let out = explore_workload::<TestQueue>(
        &queue_protocol(Mode::Hybrid),
        &setup,
        workload.clone(),
        deep_cfg(),
    )
    .expect("valid shape");
    let w = out.witness.expect("planted bug must be found");
    assert!(
        w.verdict.contains("lost write"),
        "expected a lost write, got: {}",
        w.verdict
    );
    // Iterative deepening with step 1 makes the first witness minimal:
    // no schedule shorter than the witness violates.
    assert_eq!(out.stats.max_depth_reached, w.schedule.len());

    // The witness replays to the same verdict.
    let r = replay_workload::<TestQueue>(
        &queue_protocol(Mode::Hybrid),
        &setup,
        workload,
        deep_cfg(),
        &w.schedule,
    )
    .expect("valid shape");
    assert_eq!(r.verdict.as_deref(), Some(w.verdict.as_str()));
}

#[test]
fn explorer_finds_weaken_read_quorum_minimally() {
    let (setup, workload) = weaken_shape();
    let out = explore_workload::<TestQueue>(
        &queue_protocol(Mode::Hybrid),
        &setup,
        workload.clone(),
        deep_cfg(),
    )
    .expect("valid shape");
    let w = out
        .witness
        .unwrap_or_else(|| panic!("planted bug must be found; stats: {:?}", out.stats));
    assert_eq!(out.stats.max_depth_reached, w.schedule.len());
    let r = replay_workload::<TestQueue>(
        &queue_protocol(Mode::Hybrid),
        &setup,
        workload,
        deep_cfg(),
        &w.schedule,
    )
    .expect("valid shape");
    assert_eq!(r.verdict.as_deref(), Some(w.verdict.as_str()));
}

#[test]
fn explorer_beats_chaos_sweep_on_both_knobs() {
    for (knob, (setup, workload)) in [
        (Knob::SkipFinalAck, skip_ack_shape()),
        (Knob::WeakenReadQuorum, weaken_shape()),
    ] {
        let out = explore_workload::<TestQueue>(
            &queue_protocol(Mode::Hybrid),
            &setup,
            workload,
            deep_cfg(),
        )
        .expect("valid shape");
        assert!(out.witness.is_some(), "{knob:?}: witness not found");
        let chaos_plans = chaos_plans_to_first_violation(knob);
        assert!(
            out.stats.schedules < chaos_plans,
            "{knob:?}: explorer examined {} complete schedules, chaos needed {} full plans",
            out.stats.schedules,
            chaos_plans
        );
    }
}

#[test]
fn sound_config_explores_clean() {
    // The sound protocol on the same racing shape: every interleaving to
    // the depth budget is violation-free, in all three modes.
    for mode in [Mode::Hybrid, Mode::StaticTs, Mode::Dynamic2pl] {
        let (mut setup, workload) = skip_ack_shape();
        setup.knob = Knob::None;
        let out = explore_workload::<TestQueue>(
            &queue_protocol(mode),
            &setup,
            workload,
            ExploreConfig {
                max_depth: 14,
                ..ExploreConfig::default()
            },
        )
        .expect("valid shape");
        assert!(
            out.witness.is_none(),
            "{mode:?}: sound protocol flagged: {:?}",
            out.witness
        );
        assert!(out.stats.schedules > 0 || out.stats.max_depth_reached == 14);
    }
}

#[test]
fn sound_shape_explores_clean_with_a_crash_and_a_drop() {
    // The explorer's fault choices: one crash (and its recovery) and one
    // dropped message per branch, on the sound 2-site x 1-client x 1-op
    // shape. The counts pin the search space itself, so a change to how
    // faults are enumerated or executed shows up here.
    let setup = ExploreSetup::default();
    let out = explore_workload::<TestQueue>(
        &queue_protocol(Mode::Hybrid),
        &setup,
        vec![txn(&[QInv::Enq(7)])],
        ExploreConfig {
            max_depth: 30,
            max_states: 100_000,
            crash_budget: 1,
            drop_budget: 1,
            ..ExploreConfig::default()
        },
    )
    .expect("valid shape");
    assert!(
        out.witness.is_none(),
        "sound protocol flagged under faults: {:?}",
        out.witness
    );
    let st = out.stats;
    assert_eq!(
        (st.states, st.transitions, st.schedules, st.complete),
        (40_931, 40_908, 2_284, true)
    );
}

#[test]
fn witness_spec_round_trips() {
    let (setup, _) = weaken_shape();
    for (drops, crashes) in [(0, 0), (2, 0), (0, 1), (3, 2)] {
        let spec = ExploreSpec {
            mode: "hybrid".to_string(),
            setup,
            depth: 24,
            por: true,
            drops,
            crashes,
            sched: vec![0, 1, 4, 2],
        };
        let line = spec.to_string();
        assert_eq!(line.contains(";drops="), drops > 0, "{line}");
        assert_eq!(line.contains(";crashes="), crashes > 0, "{line}");
        assert_eq!(ExploreSpec::parse(&line).expect("round trip"), spec);
    }
    // And the documented example parses.
    let ex = "mode=hybrid;sites=3;clients=2;txns=1;ops=1;objects=1;seed=5;depth=24;por=1;knob=weaken;sched=0.1.4.2";
    let parsed = ExploreSpec::parse(ex).expect("doc example");
    assert_eq!(parsed.setup.knob, Knob::WeakenReadQuorum);
    assert_eq!(parsed.sched, vec![0, 1, 4, 2]);
    assert_eq!(parsed.to_string(), ex);
}

#[test]
fn witness_replays_byte_identically_across_threads() {
    let (setup, workload) = skip_ack_shape();
    let protocol = queue_protocol(Mode::Hybrid);
    let out = explore_workload::<TestQueue>(&protocol, &setup, workload.clone(), deep_cfg())
        .expect("valid shape");
    let w = out.witness.expect("planted bug must be found");

    let reference =
        replay_workload::<TestQueue>(&protocol, &setup, workload.clone(), deep_cfg(), &w.schedule)
            .expect("valid shape");
    assert!(reference.verdict.is_some());
    let ref_steps = reference.steps.join("\n");

    // The same replay fanned out over every supported thread count must
    // render the exact same bytes and reach the same verdict.
    for threads in [1usize, 2, 4, 0] {
        let idxs: Vec<u64> = (0..8).collect();
        let replays = map_indexed(threads, &idxs, |_, _| {
            replay_workload::<TestQueue>(
                &protocol,
                &setup,
                workload.clone(),
                deep_cfg(),
                &w.schedule,
            )
            .expect("valid shape")
        });
        for r in replays {
            assert_eq!(r.steps.join("\n"), ref_steps, "threads={threads}");
            assert_eq!(r.verdict, reference.verdict, "threads={threads}");
        }
    }
}

#[test]
fn por_is_sound_across_shapes_and_modes() {
    // A/B: partial-order reduction must not change any verdict — only
    // the amount of work. Three shapes (one with each knob, one sound)
    // times three modes.
    let shapes = [
        (skip_ack_shape(), "skipack"),
        (weaken_shape(), "weaken"),
        (
            {
                let (mut s, w) = skip_ack_shape();
                s.knob = Knob::None;
                (s, w)
            },
            "sound",
        ),
    ];
    for mode in [Mode::Hybrid, Mode::StaticTs, Mode::Dynamic2pl] {
        for ((setup, workload), label) in shapes.clone() {
            let cfg_depth = if label == "sound" { 12 } else { 40 };
            let run = |por: bool| {
                explore_workload::<TestQueue>(
                    &queue_protocol(mode),
                    &setup,
                    workload.clone(),
                    ExploreConfig {
                        max_depth: cfg_depth,
                        por,
                        ..ExploreConfig::default()
                    },
                )
                .expect("valid shape")
            };
            let (on, off) = (run(true), run(false));
            assert_eq!(
                on.witness.as_ref().map(|w| w.verdict.clone()),
                off.witness.as_ref().map(|w| w.verdict.clone()),
                "{mode:?}/{label}: POR changed the verdict"
            );
            if let (Some(a), Some(b)) = (&on.witness, &off.witness) {
                assert_eq!(
                    a.schedule.len(),
                    b.schedule.len(),
                    "{mode:?}/{label}: POR changed the minimal witness depth"
                );
            }
            assert!(
                on.stats.states <= off.stats.states,
                "{mode:?}/{label}: POR explored more states ({} vs {})",
                on.stats.states,
                off.stats.states
            );
        }
    }
}

#[test]
fn fault_budgeted_witness_spec_replays_its_crash_and_recovery() {
    // A schedule that spends the crash budget: repository 0 crashes after
    // taking the client's read, recovers once the client has written to
    // repository 1 alone, and catches up on the client's retransmission.
    // Index 2 at step 2 exists only under `crashes=1`; without the budget
    // the replay would stop there, out of range, and still read clean.
    let spec = ExploreSpec::parse(
        "mode=hybrid;sites=2;clients=1;txns=1;ops=1;objects=1;seed=0;depth=30;por=1;\
         crashes=1;knob=none;sched=0.0.2.0.0.0.1.0.0.0.0.0.0.0.0.0.0.0.0",
    )
    .expect("a spec with a crash budget parses");
    let r = replay_setup::<TestQueue>(
        &queue_protocol(spec.mode.parse().expect("mode")),
        &spec.setup,
        spec.config(),
        &spec.sched,
    )
    .expect("valid shape");
    assert_eq!(r.verdict, None);
    assert_eq!(
        r.steps.join("\n"),
        "step 0: timer p=2 token=0 due=3 t=3
step 1: deliver 2->0 fp=b435dba25c430e02 t=3
step 2: crash p=0 t=3
step 3: deliver 2->1 fp=b435dba25c430e02 t=3
step 4: deliver 0->2 fp=6d84f258c8cb703f t=3
step 5: deliver 1->2 fp=6d84f258c8cb703f t=3
step 6: recover p=0 t=3
step 7: deliver 2->1 fp=79929a6ab321952a t=3
step 8: deliver 1->2 fp=c2154725940e5f28 t=3
step 9: timer p=2 token=1 due=123 t=123
step 10: timer p=2 token=2 due=123 t=123
step 11: deliver 2->0 fp=79929a6ab321952a t=123
step 12: deliver 2->1 fp=79929a6ab321952a t=123
step 13: deliver 0->2 fp=c2154725940e5f28 t=123
step 14: deliver 2->0 fp=8cb5ef792e10b531 t=123
step 15: deliver 2->1 fp=8cb5ef792e10b531 t=123
step 16: deliver 1->2 fp=c2154725940e5f28 t=123
step 17: timer p=2 token=0 due=128 t=128
step 18: timer p=2 token=2 due=243 t=243"
    );
}
