//! Process-level tests of the real binaries. The chaos test boots two
//! `cdd-node` processes and a `cdd-router` process, drives a workload
//! through the socket, `kill(9)`s one node mid-campaign, restarts it, and
//! asserts that (a) the router re-routes, (b) no request is stranded, and
//! (c) the sorted outcome set byte-matches the no-chaos baseline. The
//! flag test asserts that `cdd-node`, `cdd-router` and `cdd-client` refuse
//! a misspelt flag before they bind or connect.

use cdd_bench::workload::{generate_mixed_tenants, save, WorkloadEntry};
use cdd_net::auth::DEFAULT_SECRET;
use cdd_net::client::{self, run_workload, sorted_outcome_csv, ClientOptions};
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kill the child on drop so a failing assert never leaks processes.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawn a binary and parse the `… listening on <addr>` line it prints
/// once bound.
fn spawn_listening(bin: &str, args: &[String]) -> (Reaped, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .rsplit(' ')
        .next()
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .to_string();
    assert!(addr.contains(':'), "unexpected listening line {line:?}");
    (Reaped(child), addr)
}

fn node_args(addr: &str) -> Vec<String> {
    [
        "--addr", addr, "--devices", "2", "--blocks", "2", "--block-size", "64",
        "--queue", "128", "--cache", "256",
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

fn spawn_fleet(scratch: &std::path::Path) -> (Vec<(Reaped, String)>, Reaped, String) {
    let _ = scratch; // fleet needs no disk state; kept for symmetry
    let node_bin = env!("CARGO_BIN_EXE_cdd-node");
    let router_bin = env!("CARGO_BIN_EXE_cdd-router");
    let nodes: Vec<(Reaped, String)> =
        (0..2).map(|_| spawn_listening(node_bin, &node_args("127.0.0.1:0"))).collect();
    let upstreams = nodes.iter().map(|(_, a)| a.clone()).collect::<Vec<_>>().join(",");
    let (router, router_addr) = spawn_listening(
        router_bin,
        &["--upstreams", &upstreams, "--health-interval", "50"]
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
    );
    (nodes, router, router_addr)
}

#[test]
fn killing_a_node_mid_campaign_loses_nothing_and_changes_nothing() {
    let scratch = std::env::temp_dir().join(format!("cdd-net-kill-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let entries: Vec<WorkloadEntry> = generate_mixed_tenants(28, 2016, 150, &[10, 20], 4);
    save(&scratch.join("workload.txt"), &entries).expect("save workload");

    // No-chaos baseline through an identical (fresh) fleet.
    let baseline = {
        let (nodes, router, addr) = spawn_fleet(&scratch);
        let outcomes =
            run_workload(&addr, &entries, 1, 8, DEFAULT_SECRET, ClientOptions::default())
                .expect("baseline run");
        client::shutdown(&addr).expect("fleet shutdown");
        drop(router);
        drop(nodes);
        sorted_outcome_csv(&outcomes)
    };

    // Chaos run: same workload, but node 0 is SIGKILLed mid-campaign and
    // then restarted on the same port (the router's health loop re-admits
    // it into the rendezvous hash).
    let (mut nodes, router, addr) = spawn_fleet(&scratch);
    let addr_for_client = addr.clone();
    let client_thread = std::thread::spawn(move || {
        run_workload(&addr_for_client, &entries, 1, 8, DEFAULT_SECRET, ClientOptions::default())
            .expect("chaos run")
    });
    std::thread::sleep(Duration::from_millis(250));
    let victim_addr = nodes[0].1.clone();
    nodes[0].0 .0.kill().expect("kill node 0");
    let _ = nodes[0].0 .0.wait();
    std::thread::sleep(Duration::from_millis(150));
    // Restart on the same port; the bind can race the OS releasing it.
    let node_bin = env!("CARGO_BIN_EXE_cdd-node");
    for attempt in 0..50 {
        match std::panic::catch_unwind(|| spawn_listening(node_bin, &node_args(&victim_addr))) {
            Ok(replacement) => {
                nodes[0] = replacement;
                break;
            }
            Err(_) if attempt < 49 => std::thread::sleep(Duration::from_millis(100)),
            Err(e) => std::panic::resume_unwind(e),
        }
    }

    let outcomes = client_thread.join().expect("client thread");
    assert!(
        outcomes.iter().all(|o| o.response.is_some()),
        "a request was stranded by the node kill: {:?}",
        outcomes.iter().find(|o| o.response.is_none()).map(|o| &o.entry)
    );
    assert_eq!(
        sorted_outcome_csv(&outcomes),
        baseline,
        "killing and restarting a node changed the outcome set"
    );

    // The restarted node answers pings: it rejoined the fleet.
    assert!(client::ping(&victim_addr, 1).expect("restarted node ping"));

    client::shutdown(&addr).expect("fleet shutdown");
    drop(router);
    drop(nodes);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Run `bin` with `args` and give it `limit` to exit on its own. Returns
/// its exit code (`None` if it was still running and got killed) and its
/// stdout and stderr.
fn run_to_exit(bin: &str, args: &[&str], limit: Duration) -> (Option<i32>, String, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let started = Instant::now();
    let code = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            break status.code();
        }
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (mut stdout, mut stderr) = (String::new(), String::new());
    child.stdout.take().expect("piped stdout").read_to_string(&mut stdout).expect("stdout");
    child.stderr.take().expect("piped stderr").read_to_string(&mut stderr).expect("stderr");
    (code, stdout, stderr)
}

#[test]
fn misspelt_flags_are_refused_before_binding_or_connecting() {
    // The router's upstream and the client's peer: a process that got past
    // its flag check would connect here.
    let lure = TcpListener::bind("127.0.0.1:0").expect("bind lure");
    lure.set_nonblocking(true).expect("non-blocking lure");
    let lure_addr = lure.local_addr().expect("lure address").to_string();
    let scratch = std::env::temp_dir().join(format!("cdd-net-flags-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let workload = scratch.join("workload.txt");
    save(&workload, &generate_mixed_tenants(2, 2016, 20, &[10], 1)).expect("save workload");
    let workload = workload.to_str().expect("utf-8 path");

    let cases: [(&str, Vec<&str>, &str); 3] = [
        (
            env!("CARGO_BIN_EXE_cdd-node"),
            vec!["--addr", "127.0.0.1:0", "--backnd", "native"],
            "--backnd",
        ),
        (
            env!("CARGO_BIN_EXE_cdd-router"),
            vec!["--upstreams", &lure_addr, "--addr", "127.0.0.1:0", "--helth-interval", "50"],
            "--helth-interval",
        ),
        (
            env!("CARGO_BIN_EXE_cdd-client"),
            vec!["--addr", &lure_addr, "--workload", workload, "--conections", "2"],
            "--conections",
        ),
    ];
    for (bin, args, typo) in cases {
        let (code, stdout, stderr) = run_to_exit(bin, &args, Duration::from_secs(20));
        assert_eq!(code, Some(2), "{bin} {args:?}: stdout {stdout:?}, stderr {stderr:?}");
        assert!(!stdout.contains("listening on"), "{bin} bound before refusing: {stdout:?}");
        assert!(
            stderr.contains(typo) && stderr.contains("usage:"),
            "{bin} must name {typo} and print its usage: {stderr:?}"
        );
    }
    assert!(
        matches!(lure.accept(), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "a binary connected before refusing its flags"
    );
    let _ = std::fs::remove_dir_all(&scratch);
}
