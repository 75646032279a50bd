//! The closed-loop client: one keep-alive connection per lane, each lane
//! sending its next request only after the previous response arrived —
//! the way a planning tool or a session's PATCH stream waits for its reply.

use cool_serve::client::{ClientConn, Response};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One request to send.
pub struct Call {
    pub method: &'static str,
    pub path: String,
    pub body: String,
}

/// A request with its response (`None` on a transport error), when it
/// was sent (seconds into the run of lanes) and its latency from send to
/// full response.
pub struct Exchange {
    pub call: Call,
    pub response: Option<Response>,
    pub sent_s: f64,
    pub latency_ms: f64,
}

impl Exchange {
    /// Transport succeeded and the status is 2xx.
    pub fn ok(&self) -> bool {
        self.response
            .as_ref()
            .is_some_and(|r| (200..300).contains(&r.status))
    }

    /// The response body of a 2xx exchange.
    pub fn body(&self) -> Option<&str> {
        self.ok()
            .then(|| self.response.as_ref().map(|r| r.body.as_str()))
            .flatten()
    }
}

/// One client connection, kept across warm-up and the timed window.
#[derive(Default)]
pub struct Lane {
    conn: Option<ClientConn>,
}

impl Lane {
    fn exchange(&mut self, addr: SocketAddr, call: Call, origin: Instant) -> Exchange {
        if self.conn.is_none() {
            match ClientConn::connect(addr) {
                Ok(conn) => self.conn = Some(conn),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    return Exchange {
                        call,
                        response: None,
                        sent_s: origin.elapsed().as_secs_f64(),
                        latency_ms: 0.0,
                    };
                }
            }
        }
        let conn = self.conn.as_mut().expect("connected above");
        let sent = Instant::now();
        let sent_s = sent.duration_since(origin).as_secs_f64();
        let result = conn.request(call.method, &call.path, &[], &call.body);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let response = match result {
            // The server announces the last response on a connection (its
            // keep-alive request cap); reconnect before the next request
            // rather than count the coming close as an error.
            Ok(response) => {
                if response.header("connection") == Some("close") {
                    self.conn = None;
                }
                Some(response)
            }
            Err(_) => {
                self.conn = None;
                None
            }
        };
        Exchange {
            call,
            response,
            sent_s,
            latency_ms,
        }
    }
}

/// Runs every lane concurrently — lane 0 on the calling thread, so the
/// client uses exactly one thread per lane — until each lane's generator
/// returns `None` or `deadline` passes. Returns each lane's exchanges,
/// with send times counted from `origin`.
pub fn drive<G>(
    addr: SocketAddr,
    lanes: &mut [Lane],
    gens: Vec<G>,
    origin: Instant,
    deadline: Option<Instant>,
) -> Vec<Vec<Exchange>>
where
    G: FnMut() -> Option<Call> + Send,
{
    let run = |lane: &mut Lane, mut gen: G| {
        let mut log = Vec::new();
        while deadline.is_none_or(|d| Instant::now() < d) {
            let Some(call) = gen() else { break };
            log.push(lane.exchange(addr, call, origin));
        }
        log
    };
    std::thread::scope(|s| {
        let mut pairs = lanes.iter_mut().zip(gens);
        let first = pairs.next();
        let others: Vec<_> = pairs
            .map(|(lane, gen)| s.spawn(move || run(lane, gen)))
            .collect();
        let mut logs = vec![first.map_or_else(Vec::new, |(lane, gen)| run(lane, gen))];
        logs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client lane panicked")),
        );
        logs
    })
}
