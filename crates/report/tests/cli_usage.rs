//! The `report` CLI rejects malformed invocations with a usage message
//! and exit code 64 (EX_USAGE) instead of panicking. Each case spawns the
//! real binary — these are the code paths a user's shell actually hits.

use std::process::{Command, Output};

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_report"))
        .args(args)
        .output()
        .expect("spawn report binary")
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) -> Output {
    let out = report(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(64),
        "{args:?}: expected exit 64, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "{args:?}: stderr missing {expect_in_stderr:?}: {stderr}"
    );
    assert!(
        stderr.contains("usage: report"),
        "{args:?}: stderr missing usage text: {stderr}"
    );
    out
}

/// Run `bin` with a stdout whose reader is already gone — what the
/// process sees after `| head -1` has read its line and left.
fn assert_quiet_exit_on_closed_stdout(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(141), "{args:?}: stderr: {stderr}");
    assert!(stderr.is_empty(), "{args:?}: stderr not empty: {stderr}");
}

#[test]
fn validate_trace_refuses_a_too_deeply_nested_file() {
    let path = std::env::temp_dir().join(format!("deep-trace-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(200_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .arg("validate-trace")
        .arg(&path)
        .output()
        .expect("spawn tracetool binary");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("nested too deeply"), "stderr: {stderr}");
}

#[test]
fn report_ends_quietly_when_stdout_closes() {
    let dir = std::env::temp_dir().join(format!("report_cli_pipe_{}", std::process::id()));
    let args = ["all", "--ranks", "8", "-q", "--out", dir.to_str().unwrap()];
    assert_quiet_exit_on_closed_stdout(env!("CARGO_BIN_EXE_report"), &args);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracetool_ends_quietly_when_stdout_closes() {
    assert_quiet_exit_on_closed_stdout(env!("CARGO_BIN_EXE_tracetool"), &["list"]);
}

#[test]
fn malformed_ranks_is_usage_error() {
    assert_usage_error(&["table4", "--ranks", "abc"], "--ranks");
}

#[test]
fn zero_ranks_is_usage_error() {
    assert_usage_error(&["table4", "--ranks", "0"], "--ranks");
}

#[test]
fn absurd_ranks_is_usage_error() {
    // Rejected up front with a clear message, before any allocation.
    assert_usage_error(&["table4", "--ranks", "65537"], "supported maximum");
    assert_usage_error(&["table4", "--ranks", "1000000000"], "supported maximum");
    assert_usage_error(&["scale-study", "--large", "0"], "--large");
    assert_usage_error(&["scale-study", "--small", "70000"], "--small");
}

#[test]
fn malformed_seed_is_usage_error() {
    assert_usage_error(&["table4", "--seed", "1.5"], "--seed");
}

#[test]
fn negative_threads_is_usage_error() {
    assert_usage_error(&["all", "--threads", "-1"], "--threads");
}

#[test]
fn missing_flag_value_is_usage_error() {
    assert_usage_error(&["table4", "--ranks"], "--ranks requires a value");
}

#[test]
fn unknown_flag_is_usage_error() {
    assert_usage_error(&["table4", "--bogus"], "--bogus");
}

#[test]
fn unknown_command_is_usage_error() {
    let out = report(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(64));
}

#[test]
fn malformed_serve_port_is_usage_error() {
    assert_usage_error(&["serve", "--port", "notaport"], "--port");
    assert_usage_error(&["serve", "--port", "99999"], "--port");
}

#[test]
fn malformed_serve_workers_is_usage_error() {
    assert_usage_error(&["serve", "--workers", "many"], "--workers");
    assert_usage_error(&["serve", "--workers", "0"], "--workers");
    assert_usage_error(&["serve", "--workers"], "--workers requires a value");
}

#[test]
fn malformed_serve_cache_entries_is_usage_error() {
    assert_usage_error(&["serve", "--cache-entries", "-5"], "--cache-entries");
    assert_usage_error(&["serve", "--cache-entries", "0"], "--cache-entries");
}

#[test]
fn malformed_serve_queue_cap_is_usage_error() {
    assert_usage_error(&["serve", "--queue-cap", "1.5"], "--queue-cap");
    assert_usage_error(&["serve", "--queue-cap", "0"], "--queue-cap");
}

#[test]
fn slo_without_addr_is_usage_error() {
    assert_usage_error(&["slo"], "requires --addr");
}

#[test]
fn get_without_path_is_usage_error() {
    assert_usage_error(&["get", "--addr", "127.0.0.1:1"], "requires --path");
}

#[test]
fn get_from_a_peer_announcing_an_absurd_body_exits_1() {
    // A listener that answers any request with a Content-Length no body
    // can have: the client must refuse it, not overflow on it.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let (mut s, _) = listener.accept().unwrap();
        let _ = s.read(&mut [0u8; 1024]);
        let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\nx");
    });
    let out = report(&["get", "--addr", &addr, "--path", "/healthz"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("Content-Length"), "stderr: {stderr}");
    server.join().unwrap();
}

#[test]
fn postmortem_missing_value_is_usage_error() {
    assert_usage_error(&["serve", "--postmortem"], "--postmortem requires a value");
}

#[test]
fn store_dir_at_a_file_is_usage_error() {
    // Point --store-dir at a regular file: a usage error at the door,
    // not a crash mid-serve.
    let file = std::env::temp_dir().join(format!("report_cli_store_file_{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let out = report(&["serve", "--store-dir", file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(64), "stderr: {stderr}");
    assert!(
        stderr.contains("not a directory"),
        "stderr missing reason: {stderr}"
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn store_dir_missing_value_is_usage_error() {
    assert_usage_error(&["serve", "--store-dir"], "--store-dir requires a value");
}

#[test]
fn store_dir_uncreatable_is_usage_error() {
    // A path whose parent is a file cannot be created as a directory.
    let file = std::env::temp_dir().join(format!("report_cli_store_parent_{}", std::process::id()));
    std::fs::write(&file, b"file").unwrap();
    let nested = file.join("store");
    let out = report(&["serve", "--store-dir", nested.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(64),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn second_serve_on_one_store_dir_is_refused() {
    use std::io::BufRead as _;
    let dir = std::env::temp_dir().join(format!("report_cli_store_lock_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut first = Command::new(env!("CARGO_BIN_EXE_report"))
        .args([
            "serve",
            "--port",
            "0",
            "--store-dir",
            dir.to_str().unwrap(),
            "--quiet",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn first serve");
    // Wait until the first process holds the lock and is listening.
    let stdout = first.stdout.take().unwrap();
    let mut listening = false;
    for line in std::io::BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
    {
        if line.starts_with("serve: listening on ") {
            listening = true;
            break;
        }
    }
    assert!(listening, "first serve never came up");

    // The second process must refuse the busy store dir: exit 1 with a
    // clear "locked by" message, and without disturbing the first.
    let out = report(&["serve", "--port", "0", "--store-dir", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("locked by live pid"),
        "stderr missing lock diagnostics: {stderr}"
    );

    first.kill().expect("kill first serve");
    let _ = first.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_peers_is_usage_error() {
    // Every malformed seed-table shape is caught at the door.
    for (peers, expect) in [
        ("", "invalid --peers"),
        ("1=127.0.0.1:9001,banana", "invalid --peers"),
        ("1=127.0.0.1:9001,1=127.0.0.1:9002", "invalid --peers"),
        ("0=127.0.0.1:9001", "invalid --peers"),
        ("1=127.0.0.1", "invalid --peers"),
        ("1=127.0.0.1:9001,2=127.0.0.1:9001", "invalid --peers"),
    ] {
        assert_usage_error(&["serve", "--cluster-id", "1", "--peers", peers], expect);
    }
}

#[test]
fn malformed_cluster_id_is_usage_error() {
    assert_usage_error(
        &[
            "serve",
            "--cluster-id",
            "abc",
            "--peers",
            "1=127.0.0.1:9001",
        ],
        "--cluster-id",
    );
    // A node serving from a ring it does not appear in is always a typo.
    assert_usage_error(
        &["serve", "--cluster-id", "7", "--peers", "1=127.0.0.1:9001"],
        "does not appear in --peers",
    );
}

#[test]
fn half_a_cluster_identity_is_usage_error() {
    assert_usage_error(
        &["serve", "--cluster-id", "1"],
        "--cluster-id requires --peers",
    );
    assert_usage_error(
        &["serve", "--peers", "1=127.0.0.1:9001"],
        "--peers requires --cluster-id",
    );
}

#[test]
fn bad_forwarding_mode_is_usage_error() {
    assert_usage_error(
        &[
            "serve",
            "--cluster-id",
            "1",
            "--peers",
            "1=127.0.0.1:9001",
            "--forwarding",
            "carrier-pigeon",
        ],
        "forwarding",
    );
}

#[test]
fn cluster_subcommand_misuse_is_usage_error() {
    assert_usage_error(&["cluster", "status"], "requires --addr");
    assert_usage_error(&["cluster", "--addr", "127.0.0.1:1"], "requires a verb");
    assert_usage_error(
        &["cluster", "explode", "--addr", "127.0.0.1:1"],
        "unknown cluster verb",
    );
}

#[test]
fn app_report_config_is_a_declared_checked_flag() {
    assert_usage_error(
        &["app-report", "--config", "NoSuchConfig"],
        "--config \"NoSuchConfig\"",
    );
    assert_usage_error(
        &["app-report", "--config", "NoSuchConfig"],
        "tracetool list",
    );
    assert_usage_error(&["app-report", "--config"], "--config requires a value");
}

#[test]
fn a_flag_the_command_does_not_declare_is_a_usage_error() {
    assert_usage_error(&["table1", "--port", "9"], "table1 does not take --port");
    assert_usage_error(&["serve", "--small", "3"], "serve does not take --small");
    // Refused for not declaring the flag, not for the value a command that
    // never reads it was given.
    assert_usage_error(
        &["table1", "--workers", "0"],
        "table1 does not take --workers",
    );
}

#[test]
fn fault_campaign_ranks_default_is_8_and_64_means_64() {
    // The smallest campaign there is; only the header lines matter here.
    let tiny = [
        "fault-campaign",
        "--camp-seeds",
        "1",
        "--camp-ops",
        "4",
        "--sweep-ops",
        "1",
        "--quiet",
    ];
    let dir = std::env::temp_dir().join(format!("report_cli_fc_{}", std::process::id()));
    for (ranks, expect) in [(None, "(8 ranks"), (Some("64"), "(64 ranks")] {
        let mut args = tiny.to_vec();
        args.extend(["--out", dir.to_str().unwrap()]);
        if let Some(n) = ranks {
            args.extend(["--ranks", n]);
        }
        let out = report(&args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("Happy-path verdicts at campaign scale") && stdout.contains(expect),
            "{args:?}: stdout missing {expect:?}: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An `--out` that cannot be a directory is refused before anything is
/// simulated — not a panic once all the work is done.
fn assert_unusable_out_is_refused_at_the_door(command: &[&str]) {
    let file = std::env::temp_dir().join(format!(
        "report_cli_out_file_{}_{}",
        command[0],
        std::process::id()
    ));
    std::fs::write(&file, b"not a directory").unwrap();
    let nested = file.join("x");
    for path in [&file, &nested] {
        let mut args = command.to_vec();
        args.extend(["--out", path.to_str().unwrap()]);
        let out = assert_usage_error(&args, "--out");
        assert!(out.stdout.is_empty(), "{args:?}: ran before refusing");
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn all_refuses_an_unusable_out_before_simulating() {
    assert_unusable_out_is_refused_at_the_door(&["all", "--ranks", "8"]);
}

#[test]
fn fault_campaign_refuses_an_unusable_out_before_simulating() {
    assert_unusable_out_is_refused_at_the_door(&["fault-campaign", "--camp-seeds", "1"]);
}

/// `--keep-going` means isolation and nothing else: the same engine runs
/// with and without it, so the streaming analyzer's counters are there —
/// and equal — either way.
#[test]
fn keep_going_does_not_choose_the_engine() {
    let pairs_checked = |tag: &str, extra: &[&str]| {
        let file = std::env::temp_dir().join(format!(
            "report_cli_metrics_{tag}_{}.json",
            std::process::id()
        ));
        let mut args = vec!["table4", "--ranks", "8", "-q", "--metrics"];
        args.push(file.to_str().unwrap());
        args.extend(extra);
        assert_eq!(report(&args).status.code(), Some(0), "{args:?}");
        let dump = std::fs::read_to_string(&file).expect("metrics dump");
        std::fs::remove_file(&file).ok();
        let line = dump
            .lines()
            .find(|l| l.contains("\"core.incremental.pairs_checked\""))
            .unwrap_or_else(|| panic!("{args:?}: no core.incremental.pairs_checked in {dump}"));
        line.trim().to_string()
    };
    assert_eq!(
        pairs_checked("plain", &[]),
        pairs_checked("kg", &["--keep-going"])
    );
}

/// … and every artifact and stdout byte is the same either way.
#[test]
fn keep_going_changes_no_byte_of_a_clean_run() {
    let run = |tag: &str, extra: &[&str]| {
        let dir = std::env::temp_dir().join(format!("report_cli_kg_{tag}_{}", std::process::id()));
        let mut args = vec!["all", "--ranks", "8", "-q", "--out", dir.to_str().unwrap()];
        args.extend(extra);
        let out = report(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("out dir")
            .map(|e| e.expect("entry"))
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).expect("artifact"))
            })
            .collect();
        files.sort();
        std::fs::remove_dir_all(&dir).ok();
        (out.stdout, files)
    };
    let (stdout, files) = run("a", &[]);
    let (kg_stdout, kg_files) = run("b", &["--keep-going"]);
    assert_eq!(files.len(), 14, "artifacts of `report all`");
    assert!(stdout == kg_stdout, "stdout differs");
    for (plain, kg) in files.iter().zip(&kg_files) {
        assert!(plain == kg, "{} / {} differ", plain.0, kg.0);
    }
    assert_eq!(files.len(), kg_files.len());
}

#[test]
fn help_is_generated_from_the_command_table() {
    let commands = report_gen::cmd::REPORT.commands;
    assert_eq!(commands.len(), 24);
    for args in [&["--help"][..], &["help"]] {
        let out = report(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: report"), "{args:?}: {stdout}");
        for c in commands {
            assert!(
                stdout.contains(&format!("\n  {}", c.name)),
                "{args:?}: help does not list {}: {stdout}",
                c.name
            );
        }
    }
    for c in commands {
        let out = report(&[c.name, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{} --help", c.name);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("usage: report {}", c.name)),
            "{} --help: {stdout}",
            c.name
        );
        for f in c.flags {
            assert!(
                stdout.contains(f.name),
                "{} --help lacks {}",
                c.name,
                f.name
            );
        }
    }
}

#[test]
fn tracetool_rejects_malformed_values_instead_of_panicking() {
    let tracetool = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_tracetool"))
            .args(args)
            .output()
            .expect("spawn tracetool binary")
    };
    // Values are checked before the file is opened, so F need not exist.
    for (args, expect) in [
        (
            &["capture", "FLASH-fbs", "--ranks", "abc"][..],
            "error: invalid value for --ranks",
        ),
        (
            &["dump", "F", "--limit", "x"],
            "error: invalid value for --limit",
        ),
        (
            &["dump", "F", "--rank", "x"],
            "error: invalid value for --rank",
        ),
        (
            &["conflicts", "F", "--model", "bogus"],
            "error: invalid value for --model",
        ),
        (&[], "usage: tracetool"),
    ] {
        let out = tracetool(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(64), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: stderr: {stderr}");
    }

    // A real trace: a rank it does not have is a usage error, and one
    // corrupt byte — an `open` naming a path the table does not have — is
    // an undecodable file (exit 1) for every command that loads it, not a
    // panic.
    let dir = std::env::temp_dir().join(format!("tracetool_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let good = dir.join("enzo.rtrc");
    let good = good.to_str().expect("utf8 temp path");
    let out = tracetool(&["capture", "ENZO-HDF5", "--ranks", "2", "--out", good]);
    assert_eq!(out.status.code(), Some(0));
    let out = tracetool(&["dump", good, "--rank", "99"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(64), "stderr: {stderr}");
    assert!(
        stderr.contains("rank 99 out of range: trace has 2 ranks"),
        "stderr: {stderr}"
    );
    assert_eq!(
        tracetool(&["dump", good, "--rank", "1"]).status.code(),
        Some(0)
    );

    let bytes = std::fs::read(good).expect("captured trace");
    let mut trace = recorder::TraceSet::decode(&bytes).expect("captured trace decodes");
    assert!(trace.paths.len() < 127);
    let opened = trace
        .ranks
        .iter_mut()
        .flatten()
        .find_map(|rec| match &mut rec.func {
            recorder::Func::Open { path, .. } => Some(path),
            _ => None,
        })
        .expect("the trace opens a file");
    *opened = recorder::PathId(127);
    let bad = dir.join("enzo_bad.rtrc");
    let bad = bad.to_str().expect("utf8 temp path");
    std::fs::write(bad, trace.encode()).expect("write corrupt trace");
    for cmd in ["dump", "info", "conflicts", "patterns", "census", "report"] {
        let out = tracetool(&[cmd, bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: stderr: {stderr}");
        assert!(stderr.contains("cannot decode"), "{cmd}: stderr: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_static_command_succeeds() {
    let dir = std::env::temp_dir().join("report_cli_usage_ok");
    let out = report(&["table5", "--out", dir.to_str().unwrap(), "--quiet"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
