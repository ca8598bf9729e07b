//! Integration tests for the `qcc` command line.

use std::process::Command;

fn qcc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qcc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn types_lists_the_battery() {
    let (ok, stdout, _) = qcc(&["types"]);
    assert!(ok);
    for t in ["queue", "prom", "flagset", "doublebuffer", "register"] {
        assert!(stdout.contains(t), "{stdout}");
    }
}

#[test]
fn relations_prints_both_tables() {
    let (ok, stdout, _) = qcc(&["relations", "queue"]);
    assert!(ok);
    assert!(stdout.contains("Theorem 6"));
    assert!(stdout.contains("Theorem 10"));
    assert!(stdout.contains("incomparable"));
}

#[test]
fn certificates_all_verified() {
    let (ok, stdout, _) = qcc(&["certificates"]);
    assert!(ok);
    assert!(stdout.contains("VERIFIED"));
    assert!(!stdout.contains("FAILED"));
    assert!(stdout.contains("Theorem 4"));
    assert!(stdout.contains("Theorem 5"));
    assert!(stdout.contains("Theorem 12"));
}

#[test]
fn quorums_reports_the_prom_table() {
    let (ok, stdout, _) = qcc(&[
        "quorums",
        "prom",
        "--sites",
        "5",
        "--relation",
        "hybrid",
        "--priority",
        "Read,Write",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Read"), "{stdout}");
    assert!(stdout.contains("availability"));
}

#[test]
fn simulate_checks_atomicity() {
    let (ok, stdout, _) = qcc(&[
        "simulate",
        "register",
        "--mode",
        "hybrid",
        "--clients",
        "2",
        "--txns",
        "2",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("atomicity check: OK"), "{stdout}");
}

#[test]
fn trace_prints_filtered_events_and_latencies() {
    let (ok, stdout, _) = qcc(&[
        "trace",
        "queue",
        "--mode",
        "hybrid",
        "--clients",
        "2",
        "--txns",
        "2",
    ]);
    assert!(ok, "{stdout}");
    for kind in ["txn-begin", "phase-start", "send", "deliver", "commit"] {
        assert!(stdout.contains(kind), "missing {kind} in:\n{stdout}");
    }
    assert!(stdout.contains("events matched"), "{stdout}");
    assert!(stdout.contains("op latency"), "{stdout}");
    assert!(stdout.contains("msgs/op"), "{stdout}");
}

#[test]
fn trace_filters_narrow_the_selection() {
    let all = qcc(&["trace", "queue", "--clients", "2", "--txns", "2"]);
    let only_sends = qcc(&[
        "trace",
        "queue",
        "--clients",
        "2",
        "--txns",
        "2",
        "--action",
        "send",
        "--site",
        "3",
    ]);
    assert!(all.0 && only_sends.0);
    let count = |s: &str| s.lines().filter(|l| l.starts_with('[')).count();
    assert!(count(&only_sends.1) > 0);
    assert!(count(&only_sends.1) < count(&all.1));
    // Every selected line is a send from site 3.
    for l in only_sends.1.lines().filter(|l| l.starts_with('[')) {
        assert!(l.contains("site=3") && l.contains("send"), "{l}");
    }
}

#[test]
fn trace_saves_the_full_capture() {
    let dir = std::env::temp_dir().join("qcc_trace_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.txt");
    let path_s = path.to_str().unwrap();
    let (ok, stdout, _) = qcc(&[
        "trace",
        "counter",
        "--clients",
        "2",
        "--txns",
        "1",
        "--limit",
        "0",
        "--save",
        path_s,
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("saved to"), "{stdout}");
    let saved = std::fs::read_to_string(&path).unwrap();
    assert!(saved.lines().count() > 10);
    assert!(saved.contains("txn-begin"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn frontier_lists_pareto_points() {
    let (ok, stdout, _) = qcc(&["frontier", "prom", "--sites", "3", "--relation", "hybrid"]);
    assert!(ok);
    assert!(stdout.contains("Pareto frontier"));
    assert!(
        stdout
            .lines()
            .filter(|l| l.trim_start().starts_with('['))
            .count()
            >= 2
    );
}

#[test]
fn reconfig_replans_over_the_survivors() {
    let (ok, stdout, _) = qcc(&[
        "reconfig",
        "prom",
        "--sites",
        "5",
        "--lost",
        "4",
        "--relation",
        "hybrid",
        "--priority",
        "Read,Write",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("before the fault"), "{stdout}");
    assert!(stdout.contains("after losing {s4}"), "{stdout}");
    assert!(stdout.contains("members = {s0,s1,s2,s3}"), "{stdout}");
    assert!(stdout.contains("replanned quorum sizes"), "{stdout}");
    // Every operation line reports both the before and after sizes.
    assert!(stdout.contains("of 5 ->"), "{stdout}");
    assert!(stdout.contains("of 4 "), "{stdout}");
}

#[test]
fn reconfig_rejects_a_lost_site_outside_the_membership() {
    let (ok, _, stderr) = qcc(&["reconfig", "prom", "--sites", "3", "--lost", "7"]);
    assert!(!ok);
    assert!(stderr.contains("names site 7"), "{stderr}");
}

#[test]
fn unknown_type_fails_cleanly() {
    let (ok, _, stderr) = qcc(&["relations", "btree"]);
    assert!(!ok);
    assert!(stderr.contains("unknown type"));
}

#[test]
fn missing_args_print_usage() {
    let (ok, _, stderr) = qcc(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

/// `load` rejects unknown flags like every other subcommand (whatever
/// `Opts::finish` finds was never read), including typos of the gossip
/// knobs and the host-selection and polling flags that went away with the
/// spare hosts.
#[test]
fn load_rejects_unknown_flags() {
    for bogus in [
        "--bogus",
        "--gcd",
        "--backend",
        "--poll-min-us",
        "--poll-max-us",
        "--idle-poll-ms",
    ] {
        let (ok, _, stderr) = qcc(&["load", bogus, "1", "--clients", "4"]);
        assert!(!ok, "{bogus} accepted");
        assert!(stderr.contains("unknown option"), "{bogus}: {stderr}");
    }
}

/// A repeated option is refused, not resolved to its last value: `load`
/// would otherwise report numbers for a seed the user did not ask for.
#[test]
fn repeated_option_is_rejected() {
    let (ok, _, stderr) = qcc(&["load", "--seed", "1", "--seed", "2", "--clients", "4"]);
    assert!(!ok, "repeated --seed accepted");
    assert!(stderr.contains("--seed given more than once"), "{stderr}");
}

/// The unknown-option error is the option reference: it lists what the
/// command read, each option beside its default — one case per family of
/// commands that share a reader.
#[test]
fn an_unknown_option_lists_what_the_command_reads() {
    let cases: [(&[&str], &[&str]); 6] = [
        (&["relations", "queue"], &["it reads: no options"]),
        (
            &["quorums", "prom"],
            &["--sites 5", "--relation static", "[--priority]"],
        ),
        (
            &["trace", "queue"],
            &["--mode hybrid", "--clients 3", "--delta true", "[--action]"],
        ),
        (
            &["chaos", "queue"],
            &["--mode hybrid", "--runs 200", "--threads 0", "[--replay]"],
        ),
        (
            &["explore", "queue"],
            &["--mode hybrid", "--fan b", "--depth 20", "--por on"],
        ),
        (
            &["load"],
            &["--mode hybrid", "--clients 300", "--gc 0", "[--crash]"],
        ),
    ];
    for (cmd, reads) in cases {
        let mut args = cmd.to_vec();
        args.extend(["--bogus", "1"]);
        let (ok, _, stderr) = qcc(&args);
        assert!(!ok, "{cmd:?} accepted --bogus");
        assert!(stderr.contains("unknown option"), "{cmd:?}: {stderr}");
        for read in reads {
            assert!(stderr.contains(read), "{cmd:?} lacks {read}: {stderr}");
        }
        // The planted-bug switches stay out of it.
        assert!(!stderr.contains("unsound"), "{cmd:?}: {stderr}");
    }
}

/// A mode reads back from either spelling: the one `--mode` has always
/// taken and the one every report prints.
#[test]
fn both_spellings_of_a_mode_resolve() {
    for mode in ["dynamic", "dynamic-2pl"] {
        let (ok, stdout, stderr) = qcc(&["simulate", "queue", "--mode", mode, "--clients", "2"]);
        assert!(ok, "{mode}: {stderr}");
        assert!(stdout.contains("mode dynamic-2pl:"), "{stdout}");
        let spec = format!(
            "mode={mode};sites=2;clients=2;txns=1;ops=1;objects=1;seed=0;depth=40;por=1;\
             knob=skipack;sched=0.0.0.0.0"
        );
        let (_, stdout, _) = qcc(&["explore", "queue", "--replay", &spec]);
        assert!(stdout.contains("safety VIOLATION: lost write"), "{stdout}");
    }
    let (ok, _, stderr) = qcc(&["simulate", "queue", "--mode", "2pl"]);
    assert!(!ok);
    assert!(stderr.contains("unknown mode: 2pl"), "{stderr}");
}
