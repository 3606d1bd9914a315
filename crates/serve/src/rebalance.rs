//! The `/v1/cluster/*` wire protocol and the one rebalance routine.
//!
//! Four messages cross between nodes, each built and parsed here and
//! nowhere else:
//!
//! ```text
//! GET /v1/cluster/status                          → {epoch, members, ...}
//! GET /v1/cluster/segment?node=N&epoch=&members=  → PFSSNP1 bytes for N
//! GET /v1/cluster/pull?from=ADDR&epoch=&members=  → {imported, bytes, epoch}
//! GET /v1/cluster/commit?epoch=&members=          → {epoch, members}
//! ```
//!
//! `join` and `decommission` are operator verbs on one node and the same
//! routine ([`change`]): `cluster::plan_change` decides the next view and
//! a list of `(src → dst)` pulls; each pull runs locally when `dst` is
//! this node and through `/v1/cluster/pull` otherwise; only when every
//! one verified does the epoch move — here first, then on the peers. A
//! crash anywhere before the local commit leaves every node on the old
//! epoch with the old owners still holding every record.

use std::collections::HashMap;

use cluster::{Change, Refusal, Ring};
use obs::json::Json;
use obs::FlightKind;
use semantics_core::CacheKey;
use store::Store;

use crate::client::ClientResponse;
use crate::fleet::{self, Call, ClusterRuntime, Forwarding};
use crate::http::{Request, Response};

/// The view under negotiation: every rebalance message carries it.
struct Proposal {
    epoch: u64,
    members: Vec<u32>,
}

impl Proposal {
    fn query(&self) -> String {
        let members = cluster::format_members(&self.members);
        format!("epoch={}&members={members}", self.epoch)
    }

    fn parse(req: &Request) -> Result<Proposal, Response> {
        let epoch = req
            .query_param("epoch")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| Response::error(400, "missing or invalid epoch parameter"))?;
        let members = req
            .query_param("members")
            .ok_or_else(|| Response::error(400, "missing members parameter"))
            .and_then(|csv| cluster::parse_members(csv).map_err(|e| Response::error(400, &e)))?;
        Ok(Proposal { epoch, members })
    }

    /// Segments move only toward a view newer than the committed one.
    fn check_fresh(&self, cl: &ClusterRuntime) -> Result<(), Response> {
        let (epoch, current) = (self.epoch, cl.state().epoch());
        if epoch > current {
            return Ok(());
        }
        Err(refuse(
            409,
            format!("stale rebalance epoch {epoch} (current {current})"),
        ))
    }
}

const STATUS_PATH: &str = "/v1/cluster/status";

fn segment_path(node: u32, p: &Proposal) -> String {
    format!("/v1/cluster/segment?node={node}&{}", p.query())
}

fn pull_path(from: &str, p: &Proposal) -> String {
    format!("/v1/cluster/pull?from={from}&{}", p.query())
}

fn commit_path(p: &Proposal) -> String {
    format!("/v1/cluster/commit?{}", p.query())
}

fn members_json(members: &[u32]) -> Vec<Json> {
    members.iter().map(|&m| Json::U64(u64::from(m))).collect()
}

fn json_reply(doc: Json) -> Response {
    Response::json(200, doc.pretty() + "\n")
}

fn refuse(status: u16, why: String) -> Response {
    Response::error(status, &why)
}

/// One protocol call to seed peer `id`. `Err` says in words what went
/// wrong: unreachable, or an answer other than 200.
fn ask(cl: &ClusterRuntime, id: u32, call: Call, path: &str) -> Result<ClientResponse, String> {
    match cl.get(id, call, path) {
        Ok(resp) if resp.status == 200 => Ok(resp),
        Ok(resp) => {
            let (status, body) = (resp.status, resp.body_text());
            Err(format!(
                "node {id} answered {status} to {path}: {}",
                body.trim()
            ))
        }
        Err(e) => Err(format!("node {id} did not answer {path}: {e}")),
    }
}

/// `GET /v1/cluster/{verb}`. The endpoints exist only on a clustered
/// node, and everything that moves records needs a store to move them
/// from or into.
pub(crate) fn handle(
    cl: Option<&ClusterRuntime>,
    store: Option<&Store>,
    verb: &str,
    req: &Request,
) -> Response {
    let cl = || cl.ok_or_else(|| Response::error(400, "this node is not running in cluster mode"));
    let store = || store.ok_or_else(|| Response::error(400, "no store attached; cannot rebalance"));
    let run = || match verb {
        "status" => Ok(status(cl()?, req)),
        "commit" => commit(cl()?, req),
        "segment" => segment(cl()?, store()?, req),
        "pull" => pull(cl()?, store()?, req),
        "join" => change(cl()?, store()?, Change::Join),
        "decommission" => change(cl()?, store()?, Change::Decommission),
        _ => Err(Response::error(404, "no such endpoint")),
    };
    run().unwrap_or_else(|refusal| refusal)
}

/// Ring view: JSON by default, a rendered table with `?format=table`
/// (what `report cluster status` prints).
fn status(cl: &ClusterRuntime, req: &Request) -> Response {
    let st = cl.state();
    let (epoch, members) = st.view();
    let mode = match cl.forwarding() {
        Forwarding::Proxy => "proxy",
        Forwarding::Redirect => "redirect",
    };
    if req.query_param("format") == Some("table") {
        let mut out = format!(
            "cluster: node {} @ {}  epoch {epoch}  forwarding {mode}\n\
             {:>4}  {:<21}  {:>6}  {:>5}  {:>7}\n",
            st.node_id(),
            st.self_addr(),
            "id",
            "addr",
            "member",
            "alive",
            "slice"
        );
        for peer in st.peers() {
            out.push_str(&format!(
                "{:>4}  {:<21}  {:>6}  {:>5}  {:>6.1}%\n",
                peer.id,
                peer.addr,
                if st.is_member(peer.id) { "yes" } else { "no" },
                if st.is_alive(peer.id) { "yes" } else { "no" },
                st.slice_fraction(peer.id) * 100.0
            ));
        }
        return Response::text(200, out);
    }
    let peers: Vec<Json> = st
        .peers()
        .iter()
        .map(|p| {
            Json::obj()
                .field("id", p.id)
                .field("addr", p.addr.as_str())
                .field("member", st.is_member(p.id))
                .field("alive", st.is_alive(p.id))
                .field("slice", st.slice_fraction(p.id))
        })
        .collect();
    json_reply(
        Json::obj()
            .field("node", st.node_id())
            .field("addr", st.self_addr())
            .field("epoch", epoch)
            .field("forwarding", mode)
            .field("members", members_json(&members))
            .field("peers", peers),
    )
}

/// Adopt the freshest committed view any seed peer holds; best effort
/// (unreachable peers are skipped, a losing race is a no-op — `commit`
/// rejects stale epochs). A freshly booted node defaults to "every seed
/// peer is a member at epoch 1"; this is how it learns otherwise before
/// deciding a change.
fn sync_view_from_peers(cl: &ClusterRuntime) {
    let st = cl.state();
    let mut newest = st.epoch();
    let mut best = None;
    for peer in st.peers().iter().filter(|p| p.id != st.node_id()) {
        let Ok(resp) = ask(cl, peer.id, Call::Control, STATUS_PATH) else {
            continue;
        };
        let body = Json::parse(&resp.body_text()).unwrap_or(Json::Null);
        let epoch = body.get("epoch").and_then(Json::as_u64);
        let members: Option<Vec<u32>> = body.get("members").and_then(|list| {
            let ids = list.as_array()?.iter();
            ids.map(|id| u32::try_from(id.as_u64()?).ok()).collect()
        });
        if let Some((epoch, members)) = epoch.filter(|&e| e > newest).zip(members) {
            newest = epoch;
            best = Some(members);
        }
    }
    if let Some(members) = best {
        let _ = st.commit(newest, &members);
    }
}

/// Export this node's store records that belong to `node` under the
/// proposed ring, as one checksummed snapshot segment stamped with the
/// epoch under negotiation.
fn segment(cl: &ClusterRuntime, store: &Store, req: &Request) -> Result<Response, Response> {
    let node: u32 = req
        .query_param("node")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| Response::error(400, "missing or invalid node parameter"))?;
    let p = Proposal::parse(req)?;
    p.check_fresh(cl)?;
    let ring = Ring::build(&p.members);
    let (segment, records) = store.export_segment(p.epoch, |canonical| {
        let fp = CacheKey::from_canonical(canonical.to_string()).fingerprint();
        ring.owner(fp.0) == Some(node)
    });
    if obs::metrics_enabled() {
        let m = obs::metrics();
        m.add("cluster.segments_out", 1);
        m.add("cluster.segment_records_out", records);
        m.add(&format!("cluster.rebalance_out_to.{node}"), records);
    }
    obs::flight::record(
        FlightKind::ClusterRebalance,
        p.epoch,
        records,
        segment.len() as u64,
        "",
        "segment-export",
    );
    Ok(Response {
        status: 200,
        content_type: "application/octet-stream",
        body: segment,
        extra_headers: vec![(fleet::EPOCH_HEADER, p.epoch.to_string())],
        close: false,
    })
}

/// Fetch from seed peer `src` the segment the proposed ring assigns to
/// this node and replay it through normal store recovery. All-or-nothing:
/// verification failure imports zero records and is reported as an
/// error. Returns `(records imported, segment bytes)`.
fn import_from(
    cl: &ClusterRuntime,
    store: &Store,
    src: u32,
    p: &Proposal,
) -> Result<(u64, u64), Response> {
    let path = segment_path(cl.state().node_id(), p);
    let resp = ask(cl, src, Call::Transfer, &path).map_err(|why| refuse(502, why))?;
    let bytes = resp.body.len() as u64;
    let imported = store.import_segment(p.epoch, &resp.body).map_err(|e| {
        refuse(
            500,
            format!("segment from node {src} failed verification: {e}"),
        )
    })?;
    if obs::metrics_enabled() {
        let m = obs::metrics();
        m.add("cluster.segments_in", 1);
        m.add("cluster.segment_records_in", imported);
    }
    obs::flight::record(
        FlightKind::ClusterRebalance,
        p.epoch,
        imported,
        bytes,
        "",
        "segment-import",
    );
    Ok((imported, bytes))
}

/// `pull`: import from the seed peer whose address is `from`.
fn pull(cl: &ClusterRuntime, store: &Store, req: &Request) -> Result<Response, Response> {
    let from = req
        .query_param("from")
        .ok_or_else(|| Response::error(400, "missing from parameter"))?;
    let src = cl
        .state()
        .peers()
        .iter()
        .find(|peer| peer.addr == from)
        .ok_or_else(|| Response::error(400, "from is not a seed peer address"))?
        .id;
    let p = Proposal::parse(req)?;
    p.check_fresh(cl)?;
    let (imported, bytes) = import_from(cl, store, src, &p)?;
    Ok(json_reply(
        Json::obj()
            .field("imported", imported)
            .field("bytes", bytes)
            .field("epoch", p.epoch),
    ))
}

/// Ask seed peer `dst` to pull from `src`; the reply is [`pull`]'s.
fn pull_on_peer(
    cl: &ClusterRuntime,
    dst: u32,
    src: u32,
    p: &Proposal,
) -> Result<(u64, u64), Response> {
    let from = cl.state().peer_addr(src).unwrap_or_default();
    let resp = ask(cl, dst, Call::Transfer, &pull_path(from, p)).map_err(|why| refuse(502, why))?;
    let body = Json::parse(&resp.body_text()).unwrap_or(Json::Null);
    let count = |name| body.get(name).and_then(Json::as_u64);
    // An unreadable count can never equal an expected one.
    Ok((
        count("imported").unwrap_or(u64::MAX),
        count("bytes").unwrap_or(0),
    ))
}

/// Switch to the proposed member set at the negotiated epoch. Only
/// issued by the orchestrating node *after* byte-verified handoff.
fn commit(cl: &ClusterRuntime, req: &Request) -> Result<Response, Response> {
    let p = Proposal::parse(req)?;
    cl.state()
        .commit(p.epoch, &p.members)
        .map_err(|e| Response::error(409, &e))?;
    if obs::metrics_enabled() {
        obs::metrics().add("cluster.commits", 1);
    }
    obs::flight::record(FlightKind::ClusterRebalance, p.epoch, 0, 0, "", "commit");
    Ok(json_reply(
        Json::obj()
            .field("epoch", p.epoch)
            .field("members", members_json(&p.members)),
    ))
}

/// Push a commit to every other member of the new view; returns how many
/// acknowledged. A peer that misses the commit catches up through
/// epoch-skew handling on its next forwarded request.
fn commit_on_peers(cl: &ClusterRuntime, p: &Proposal) -> u64 {
    let me = cl.state().node_id();
    let path = commit_path(p);
    let mut acked = 0;
    for &m in p.members.iter().filter(|&&m| m != me) {
        match ask(cl, m, Call::Control, &path) {
            Ok(_) => acked += 1,
            Err(why) => obs::warn!("cluster: commit not acknowledged: {why}"),
        }
    }
    acked
}

/// Join (run on the gaining node) or decommission (run on the losing
/// node): sync the view, plan, execute every pull, verify, and only then
/// bump the epoch — on this node first (a leaver starts forwarding
/// everything immediately), then fleet-wide.
fn change(cl: &ClusterRuntime, store: &Store, change: Change) -> Result<Response, Response> {
    sync_view_from_peers(cl);
    let st = cl.state();
    let me = st.node_id();
    let (epoch, members) = st.view();
    let plan =
        cluster::plan_change(change, me, epoch, &members).map_err(|refusal| match refusal {
            Refusal::AlreadyMember => Response::error(409, "this node is already a ring member"),
            Refusal::NotMember => Response::error(409, "this node is not a ring member"),
            Refusal::LastMember => Response::error(400, "cannot decommission the last ring member"),
        })?;
    let p = Proposal {
        epoch: plan.epoch,
        members: plan.members,
    };

    // What the new ring says each member should receive of *this* node's
    // records: a pull out of here must import exactly that many before
    // anything commits.
    let ring = Ring::build(&p.members);
    let mut expected: HashMap<u32, u64> = HashMap::new();
    for key in store.keys() {
        let fp = CacheKey::from_canonical(key).fingerprint();
        if let Some(owner) = ring.owner(fp.0) {
            *expected.entry(owner).or_insert(0) += 1;
        }
    }

    let (mut records, mut bytes) = (0u64, 0u64);
    for &(src, dst) in &plan.pulls {
        let want = (src == me).then(|| expected.get(&dst).copied().unwrap_or(0));
        if want == Some(0) {
            continue;
        }
        let (got, moved_bytes) = if dst == me {
            import_from(cl, store, src, &p)?
        } else {
            pull_on_peer(cl, dst, src, &p)?
        };
        if let Some(want) = want.filter(|&want| want != got) {
            return Err(refuse(
                500,
                format!("node {dst} imported {got} records, expected {want}"),
            ));
        }
        records += got;
        bytes += moved_bytes;
    }

    st.commit(p.epoch, &p.members)
        .map_err(|e| Response::error(409, &e))?;
    let peer_commits = commit_on_peers(cl, &p);
    let doc = Json::obj().field("epoch", p.epoch);
    let (verb, doc) = match change {
        Change::Join => ("join", doc.field("imported", records).field("bytes", bytes)),
        Change::Decommission => ("decommission", doc.field("moved", records)),
    };
    obs::flight::record(
        FlightKind::ClusterRebalance,
        p.epoch,
        records,
        bytes,
        "",
        verb,
    );
    Ok(json_reply(
        doc.field("peer_commits", peer_commits)
            .field("members", members_json(&p.members)),
    ))
}
