//! End-to-end serving-tier tests: spawn `ohmflow-serve`'s server
//! in-process on an ephemeral port and drive it over real TCP sockets —
//! DIMACS and binary ingest, repeated solves riding the plan cache,
//! concurrent clients, and the per-request error path.

use std::net::TcpStream;

use ohmflow::GraphDelta;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_apps::serve::{self, ServeConfig, TAG_BINARY, TAG_DIMACS};
use ohmflow_graph::{binfmt, dimacs, generators, FlowNetwork};

fn spawn_server(workers: usize) -> serve::ServerHandle {
    serve::spawn(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            options: SolveOptions::ideal(),
        },
    )
    .expect("bind ephemeral port")
}

/// A DIMACS round trip returns the same flow value and edge flows as an
/// in-process facade solve, plus coherent telemetry.
#[test]
fn dimacs_round_trip_matches_local_solve() {
    let g = generators::fig5a();
    let local = MaxFlowSolver::new(SolveOptions::ideal())
        .solve(&g)
        .expect("local solve");

    let server = spawn_server(2);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");
    let text = dimacs::write(&g);
    let resp = serve::request(&mut conn, TAG_DIMACS, text.as_bytes()).expect("solve over TCP");

    assert!(
        (resp.value - local.value).abs() < 1e-9 * local.value.abs().max(1.0),
        "served {} vs local {}",
        resp.value,
        local.value
    );
    assert_eq!(resp.edge_flows.len(), g.edge_count());
    for (e, (a, b)) in resp.edge_flows.iter().zip(&local.edge_flows).enumerate() {
        assert!(
            (a - b).abs() < 1e-9 * b.abs().max(1.0),
            "edge {e}: {a} vs {b}"
        );
    }
    assert!(resp.iterations >= 1, "telemetry must carry real counters");
    assert!(resp.factor_nnz > 0);
    assert!(resp.block_count >= 1);

    // Second identical request on the same connection: the plan cache is
    // warm now, so the answer must ride a template.
    let resp2 = serve::request(&mut conn, TAG_DIMACS, text.as_bytes()).expect("repeat solve");
    assert!(resp2.templated, "repeat topology must hit the plan cache");
    assert!((resp2.value - resp.value).abs() < 1e-9 * resp.value.abs().max(1.0));

    drop(conn);
    server.shutdown();
}

/// Binary (`OFG1`) ingest agrees with DIMACS ingest of the same graph.
#[test]
fn binary_ingest_matches_dimacs_ingest() {
    let g = generators::fig15a(16);
    let server = spawn_server(2);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");

    let via_text =
        serve::request(&mut conn, TAG_DIMACS, dimacs::write(&g).as_bytes()).expect("dimacs solve");
    let via_bin =
        serve::request(&mut conn, TAG_BINARY, &binfmt::write_binary(&g)).expect("binary solve");
    assert!(
        (via_text.value - via_bin.value).abs() < 1e-9 * via_text.value.abs().max(1.0),
        "ingest paths disagree: {} vs {}",
        via_bin.value,
        via_text.value
    );
    assert_eq!(via_text.edge_flows.len(), via_bin.edge_flows.len());

    drop(conn);
    server.shutdown();
}

/// Several concurrent clients hammering two topologies all get correct
/// answers, every one from a cached plan — the worker pool and shared
/// plan cache under real socket concurrency.
#[test]
fn concurrent_clients_get_correct_answers() {
    let graphs = [generators::fig5a(), generators::fig15a(12)];
    let expected: Vec<f64> = graphs
        .iter()
        .map(|g| {
            MaxFlowSolver::new(SolveOptions::ideal())
                .solve(g)
                .expect("local solve")
                .value
        })
        .collect();
    let payloads: Vec<Vec<u8>> = graphs.iter().map(binfmt::write_binary).collect();

    let server = spawn_server(4);
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|c| {
            let payloads = payloads.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).expect("connect");
                for round in 0..4 {
                    let i = (c + round) % payloads.len();
                    let resp = serve::request(&mut conn, TAG_BINARY, &payloads[i])
                        .expect("concurrent solve");
                    assert!(
                        (resp.value - expected[i]).abs() < 1e-9 * expected[i].abs().max(1.0),
                        "client {c} round {round}: {} vs {}",
                        resp.value,
                        expected[i]
                    );
                    assert!(
                        resp.templated,
                        "client {c} round {round}: answer must ride a cached plan"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

/// Malformed requests get error responses — and the connection (and
/// server) keep serving afterwards.
#[test]
fn bad_requests_report_errors_without_poisoning_the_connection() {
    let server = spawn_server(1);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");

    let garbage = serve::request(&mut conn, TAG_DIMACS, b"this is not dimacs");
    assert!(garbage.is_err(), "garbage DIMACS must be rejected");
    let bad_tag = serve::request(&mut conn, 42, b"");
    assert!(bad_tag.unwrap_err().contains("unknown request tag"));
    let bad_magic = serve::request(&mut conn, TAG_BINARY, b"NOPE");
    assert!(bad_magic.is_err(), "bad OFG1 magic must be rejected");

    // The same connection still solves fine.
    let g = generators::fig5a();
    let resp =
        serve::request(&mut conn, TAG_BINARY, &binfmt::write_binary(&g)).expect("recovery solve");
    assert!(resp.value > 0.0);

    drop(conn);
    server.shutdown();
}

/// A delta session over real sockets: open, stream capacity + topology
/// deltas, and verify every answer against a fresh local solve of the
/// evolved graph at 1e-9 — then close and verify the id dies.
#[test]
fn delta_session_round_trip_tracks_fresh_solves() {
    let g = generators::fig5a();
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let fresh = |g: &FlowNetwork| solver.solve_fresh(g).expect("fresh solve").value;

    let server = spawn_server(2);
    let mut conn = TcpStream::connect(server.addr()).expect("connect");

    let opened = serve::open_session(&mut conn, TAG_BINARY, &binfmt::write_binary(&g))
        .expect("open session");
    assert!(
        (opened.value - fresh(&g)).abs() < 1e-9,
        "opening answer {} vs fresh {}",
        opened.value,
        fresh(&g)
    );
    assert_eq!(opened.edge_flows.len(), g.edge_count());
    let id = opened.session_id;

    // Capacity drift + removal + insertion, each checked against a local
    // fresh solve of the same evolved graph.
    let live = {
        let mut h = FlowNetwork::new(g.vertex_count(), g.source(), g.sink()).unwrap();
        for (k, e) in g.edges().iter().enumerate() {
            h.add_edge(e.from, e.to, if k == 0 { 7 } else { e.capacity })
                .unwrap();
        }
        h
    };
    let resp = serve::apply_deltas(
        &mut conn,
        id,
        &[GraphDelta::SetCapacity {
            edge: 0,
            capacity: 7,
        }],
    )
    .expect("capacity delta");
    assert!(
        (resp.value - fresh(&live)).abs() < 1e-9,
        "capacity delta {} vs fresh {}",
        resp.value,
        fresh(&live)
    );
    assert!(!resp.replanned, "capacity updates stay value-only");

    let removed = {
        let mut h = FlowNetwork::new(live.vertex_count(), live.source(), live.sink()).unwrap();
        for (k, e) in live.edges().iter().enumerate() {
            if k != 1 {
                h.add_edge(e.from, e.to, e.capacity).unwrap();
            }
        }
        h
    };
    let resp = serve::apply_deltas(&mut conn, id, &[GraphDelta::RemoveEdge { edge: 1 }])
        .expect("remove delta");
    assert!(
        (resp.value - fresh(&removed)).abs() < 1e-9,
        "removal {} vs fresh {}",
        resp.value,
        fresh(&removed)
    );
    assert_eq!(resp.edge_flows[1], 0.0, "removed edge reports zero flow");

    let inserted = {
        let mut h =
            FlowNetwork::new(removed.vertex_count(), removed.source(), removed.sink()).unwrap();
        for e in removed.edges() {
            h.add_edge(e.from, e.to, e.capacity).unwrap();
        }
        h.add_edge(1, 3, 4).unwrap();
        h
    };
    let resp = serve::apply_deltas(
        &mut conn,
        id,
        &[GraphDelta::InsertEdge {
            from: 1,
            to: 3,
            capacity: 4,
        }],
    )
    .expect("insert delta");
    assert!(
        (resp.value - fresh(&inserted)).abs() < 1e-9,
        "insertion {} vs fresh {}",
        resp.value,
        fresh(&inserted)
    );
    assert_eq!(resp.new_edge_ids, vec![g.edge_count() as u64]);
    assert!(resp.replanned, "novel structure re-keys");

    // Invalid batches are rejected without killing the session.
    let err = serve::apply_deltas(&mut conn, id, &[GraphDelta::RemoveEdge { edge: 999 }]);
    assert!(err.is_err(), "invalid batch must be rejected");
    let resp = serve::apply_deltas(&mut conn, id, &[]).expect("session survives rejection");
    assert!((resp.value - fresh(&inserted)).abs() < 1e-9);

    // Close, then the id is gone.
    assert_eq!(serve::close_session(&mut conn, id), Ok(id));
    let gone = serve::apply_deltas(&mut conn, id, &[]);
    assert!(
        gone.unwrap_err().contains("unknown or busy"),
        "closed sessions must be unknown"
    );

    drop(conn);
    server.shutdown();
}
