//! The correctness gate: every `ok` response is re-verified on the
//! graph exactly as the client submitted it. [`verify`] is also the
//! check the traced replays apply to their own witnesses.

use eds_scenarios::{Protocol, Solution};
use eds_verify::{check_edge_dominating_set, check_maximal_matching};
use pn_graph::{EdgeId, NodeId, SimpleGraph};

use crate::json::{self, Value};
use crate::mix::Request;

/// What one response amounts to.
#[derive(Debug)]
pub enum Verdict {
    /// A verified answer: its result records without the witnesses, in
    /// response order (the part a cache hit must reproduce exactly).
    Ok(Vec<Value>),
    /// A well-formed error frame of this kind.
    Error(String),
    /// An answer that failed verification.
    Wrong(String),
}

fn protocol_named(name: &str) -> Option<Protocol> {
    Protocol::ALL.into_iter().find(|p| p.name() == name)
}

/// Checks one response line against its request and the client's graph.
pub fn check(req: &Request, graph: &SimpleGraph, line: &str) -> Verdict {
    match check_inner(req, graph, line) {
        Ok(v) => v,
        Err(msg) => Verdict::Wrong(format!("request {} ({}): {msg}", req.id, req.class)),
    }
}

fn check_inner(req: &Request, graph: &SimpleGraph, line: &str) -> Result<Verdict, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    if v.get("id").and_then(Value::as_u64) != Some(req.id) {
        return Err("response id does not match the request".to_owned());
    }
    match v.get("ok") {
        Some(Value::Bool(true)) => {}
        Some(Value::Bool(false)) => {
            let kind = v.get("kind").and_then(Value::as_str).unwrap_or("?");
            return Ok(Verdict::Error(kind.to_owned()));
        }
        _ => return Err("response lacks an \"ok\" member".to_owned()),
    }
    let results = v
        .get("results")
        .and_then(Value::as_arr)
        .ok_or("ok response without results")?;
    let skipped = v
        .get("skipped")
        .and_then(Value::as_arr)
        .ok_or("ok response without skipped")?;

    let mut covered: Vec<Protocol> = Vec::new();
    for s in skipped {
        let p = s
            .as_str()
            .and_then(protocol_named)
            .ok_or("unknown skipped protocol")?;
        covered.push(p);
    }
    let mut records = Vec::with_capacity(results.len());
    for r in results {
        let name = r
            .get("protocol")
            .and_then(Value::as_str)
            .ok_or("result without protocol")?;
        let p = protocol_named(name).ok_or_else(|| format!("unknown protocol {name}"))?;
        covered.push(p);
        check_record(p, r, graph).map_err(|e| format!("{name}: {e}"))?;
        let Value::Obj(members) = r else {
            return Err("result is not an object".to_owned());
        };
        records.push(Value::Obj(
            members
                .iter()
                .filter(|(k, _)| k != "solution")
                .cloned()
                .collect(),
        ));
    }
    let mut want = req.requested();
    let key = |p: &Protocol| p.name();
    want.sort_by_key(key);
    covered.sort_by_key(key);
    if want != covered {
        return Err(format!("answered {covered:?} for requested {want:?}"));
    }
    Ok(Verdict::Ok(records))
}

fn count(r: &Value, key: &str) -> Result<usize, String> {
    r.get(key)
        .and_then(Value::as_u64)
        .map(|x| x as usize)
        .ok_or_else(|| format!("missing {key}"))
}

fn check_record(p: Protocol, r: &Value, graph: &SimpleGraph) -> Result<(), String> {
    if r.get("violation") != Some(&Value::Null) {
        return Err(format!(
            "server reported violation {:?}",
            r.get("violation")
        ));
    }
    if r.get("within_bound") == Some(&Value::Bool(false)) {
        return Err("record has within_bound:false".to_owned());
    }
    if count(r, "nodes")? != graph.node_count() || count(r, "edges")? != graph.edge_count() {
        return Err("record sizes differ from the submitted graph".to_owned());
    }
    let solution = r.get("solution").ok_or("missing solution")?;
    let witness = if let Some(edges) = solution.get("edges").and_then(Value::as_arr) {
        Solution::Edges(edge_ids(graph, edges)?)
    } else if let Some(nodes) = solution.get("nodes").and_then(Value::as_arr) {
        if p != Protocol::VertexCover {
            return Err("node witness for an edge protocol".to_owned());
        }
        Solution::Nodes(
            nodes
                .iter()
                .map(|v| node(graph, v))
                .collect::<Result<_, _>>()?,
        )
    } else {
        return Err("solution has neither edges nor nodes".to_owned());
    };
    let size = count(r, "size")?;
    if witness.len() != size {
        return Err(format!(
            "size {size} but {} witness elements",
            witness.len()
        ));
    }
    verify(p, graph, &witness)
}

/// The feasibility check of a witness: a maximal matching for the
/// matching protocols, an edge dominating set for the other edge
/// protocols, a vertex cover for node witnesses.
pub fn verify(p: Protocol, graph: &SimpleGraph, witness: &Solution) -> Result<(), String> {
    match witness {
        Solution::Edges(edges) => match p {
            Protocol::IdMatching | Protocol::RandMatching => check_maximal_matching(graph, edges),
            _ => check_edge_dominating_set(graph, edges),
        }
        .map_err(|e| format!("witness rejected by eds-verify: {e}")),
        Solution::Nodes(cover) => check_vertex_cover(graph, cover),
    }
}

fn node(graph: &SimpleGraph, v: &Value) -> Result<NodeId, String> {
    match v.as_u64() {
        Some(i) if (i as usize) < graph.node_count() => Ok(NodeId::new(i as usize)),
        _ => Err(format!("witness names node {v:?} outside the graph")),
    }
}

fn edge_ids(graph: &SimpleGraph, edges: &[Value]) -> Result<Vec<EdgeId>, String> {
    edges
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("edge is not a pair")?;
            let (u, v) = (node(graph, &pair[0])?, node(graph, &pair[1])?);
            graph
                .find_edge(u, v)
                .ok_or_else(|| format!("witness edge {{{u}, {v}}} is not in the graph"))
        })
        .collect()
}

/// `eds-verify` has no vertex-cover checker, so this one is local:
/// distinct nodes touching every edge.
fn check_vertex_cover(graph: &SimpleGraph, cover: &[NodeId]) -> Result<(), String> {
    let mut in_cover = vec![false; graph.node_count()];
    for v in cover {
        if std::mem::replace(&mut in_cover[v.index()], true) {
            return Err(format!("cover lists node {v} twice"));
        }
    }
    match graph
        .edges()
        .find(|(_, u, v)| !in_cover[u.index()] && !in_cover[v.index()])
    {
        Some((_, u, v)) => Err(format!("edge {{{u}, {v}}} has no endpoint in the cover")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{edges_of, Input};
    use eds_scenarios::{ServeConfig, Server};

    /// Solves a request on an in-process server through its stream
    /// transport and returns the response line.
    fn solve(req: &Request) -> String {
        let server = Server::new(ServeConfig {
            solver_threads: 1,
            ..ServeConfig::default()
        });
        let mut out = Vec::new();
        let frame = format!("{}\n", req.frame());
        server.serve_stream(frame.as_bytes(), &mut out).unwrap();
        server.finish();
        String::from_utf8(out).unwrap().trim_end().to_owned()
    }

    fn petersen_upload() -> Request {
        let g = pn_graph::generators::petersen();
        Request {
            id: 7,
            class: "test",
            input: Input::Edges {
                nodes: g.node_count(),
                edges: edges_of(&g),
            },
            protocols: None,
            bounds: None,
            seed: 3,
            base: None,
        }
    }

    #[test]
    fn a_true_answer_passes() {
        let req = petersen_upload();
        let line = solve(&req);
        match check(&req, &req.graph(), &line) {
            Verdict::Ok(records) => assert_eq!(records.len(), 6),
            other => panic!("{other:?}"),
        }
    }

    /// Re-renders a parsed value (numbers here are all integers).
    fn render(v: &Value) -> String {
        match v {
            Value::Null => "null".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Num(x) => format!("{x}"),
            Value::Str(s) => format!("{s:?}"),
            Value::Arr(items) => {
                let inner: Vec<String> = items.iter().map(render).collect();
                format!("[{}]", inner.join(","))
            }
            Value::Obj(members) => {
                let inner: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("{k:?}:{}", render(v)))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }

    /// Applies `edit` to the result record of `protocol` in a response.
    fn corrupt(line: &str, protocol: &str, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let mut v = json::parse(line).unwrap();
        let Value::Obj(top) = &mut v else { panic!() };
        let (_, Value::Arr(results)) = top.iter_mut().find(|(k, _)| k == "results").unwrap() else {
            panic!()
        };
        let record = results
            .iter_mut()
            .find(|r| r.get("protocol").and_then(Value::as_str) == Some(protocol))
            .unwrap();
        let Value::Obj(members) = record else {
            panic!()
        };
        edit(members);
        render(&v)
    }

    fn member<'a>(members: &'a mut [(String, Value)], key: &str) -> &'a mut Value {
        &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    /// Replaces a record's witness list and keeps `size` consistent, so
    /// only the witness check itself can catch the corruption.
    fn set_witness(members: &mut [(String, Value)], kind: &str, items: Vec<Value>) {
        *member(members, "size") = Value::Num(items.len() as f64);
        *member(members, "solution") = Value::Obj(vec![(kind.to_owned(), Value::Arr(items))]);
    }

    fn witness(members: &mut [(String, Value)], kind: &str) -> Vec<Value> {
        member(members, "solution")
            .get(kind)
            .unwrap()
            .as_arr()
            .unwrap()
            .to_vec()
    }

    #[test]
    fn a_corrupted_witness_trips_the_gate() {
        let req = petersen_upload();
        let g = req.graph();
        let line = solve(&req);
        assert!(matches!(
            check(&req, &g, &render(&json::parse(&line).unwrap())),
            Verdict::Ok(_)
        ));
        let wrong = |text: String| matches!(check(&req, &g, &text), Verdict::Wrong(_));

        // A maximal matching missing one edge is no longer maximal.
        assert!(wrong(corrupt(&line, "id-matching", |m| {
            let edges = witness(m, "edges");
            set_witness(m, "edges", edges[1..].to_vec());
        })));
        // A witness edge that is not in the graph (0-2 is a chord).
        assert!(wrong(corrupt(&line, "port-one", |m| {
            let mut edges = witness(m, "edges");
            edges[0] = Value::Arr(vec![Value::Num(0.0), Value::Num(2.0)]);
            set_witness(m, "edges", edges);
        })));
        // An empty vertex cover.
        assert!(wrong(corrupt(&line, "vertex-cover", |m| set_witness(
            m,
            "nodes",
            Vec::new()
        ))));
        // A record admitting a bound violation.
        assert!(wrong(corrupt(&line, "bounded-degree", |m| {
            *member(m, "within_bound") = Value::Bool(false);
        })));
        // A response that drops a requested protocol.
        let mut v = json::parse(&line).unwrap();
        if let Value::Obj(top) = &mut v {
            if let Some((_, Value::Arr(results))) = top.iter_mut().find(|(k, _)| k == "results") {
                results.pop();
            }
        }
        assert!(wrong(render(&v)));
    }
}
