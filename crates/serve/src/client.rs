//! A small blocking client for the line-delimited JSON protocol.
//!
//! Used by `bmb query`, the load generator, and the integration tests.
//! One request at a time: send a line, read a line. The server's banner
//! is consumed (and checked) at connect time.
//!
//! [`Client::request`] is [`Client::send`] followed by [`Client::recv`].
//! A caller that talks to several servers may call the halves apart:
//! send to each server first, then read each reply, so the servers work
//! at the same time without a thread per server. A connection carries
//! one request at a time either way; every `send` must be followed by
//! its `recv` before the next `send`.
//!
//! [`RetryClient`] layers reconnection and bounded exponential-backoff
//! retries on top: transient failures (the server's `"retryable":true`
//! errors, broken connections) are retried — but only for idempotent
//! commands. An `ingest` whose connection died mid-flight may or may not
//! have been applied, so it is never retried automatically. Its
//! [`RetryClient::send`]/[`RetryClient::recv`] halves do not retry: a
//! failure drops the connection (when it is broken) and is returned, and
//! the caller may then fall back to [`RetryClient::request`].

use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{parse, Value};
use crate::protocol::write_line;

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Every request line is serialized here and leaves through
    /// [`write_line`], which empties it for the next one.
    outgoing: String,
    /// The banner line the server sent on connect.
    banner: String,
}

/// A client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent something that is not a JSON object line.
    Protocol(String),
    /// The server answered `"ok": false`; the payload is its message.
    Server(String),
    /// The server answered `"ok": false` with `"retryable": true` —
    /// a transient condition (overload, deadline); trying again later
    /// may succeed.
    Retryable(String),
    /// The server answered `"ok": false` with `"fenced": true`: the
    /// request was stamped with a generation below the node's own.
    /// Permanent for this client's view — the caller must re-learn the
    /// cluster topology (adopt `generation`) before trying again.
    Fenced {
        /// The rejecting node's generation.
        generation: u64,
        /// The server's message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Retryable(m) => write!(f, "server busy (retryable): {m}"),
            ClientError::Fenced {
                generation,
                message,
            } => write!(f, "fenced at generation {generation}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connects and consumes the server banner.
    ///
    /// # Errors
    ///
    /// Fails on connection refusal or a malformed banner.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Like [`Client::connect`] with a socket-level timeout applied to
    /// reads and writes.
    ///
    /// # Errors
    ///
    /// Fails on connection refusal or a malformed banner.
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Self::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Result<Client, ClientError> {
        // Requests are single small writes; disable Nagle so they go out
        // immediately instead of waiting on the previous response's ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(stream),
            writer,
            outgoing: String::new(),
            banner: String::new(),
        };
        let banner = client.read_line()?;
        let value =
            parse(&banner).map_err(|e| ClientError::Protocol(format!("bad banner: {e}")))?;
        if value.get("proto").and_then(Value::as_str).is_none() {
            // Admission control sheds load by sending one error line
            // instead of the banner; surface it as retryable so callers
            // can back off and reconnect.
            if value.get("ok").and_then(Value::as_bool) == Some(false) {
                let message = value
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("connection rejected")
                    .to_string();
                if value.get("retryable").and_then(Value::as_bool) == Some(true) {
                    return Err(ClientError::Retryable(message));
                }
                return Err(ClientError::Server(message));
            }
            return Err(ClientError::Protocol(format!(
                "banner missing 'proto': {banner}"
            )));
        }
        client.banner = banner;
        Ok(client)
    }

    /// The banner line the server greeted with.
    pub fn banner(&self) -> &str {
        &self.banner
    }

    /// Sends one raw line and returns the raw response line — the
    /// byte-level interface the golden-file tests pin down.
    ///
    /// # Errors
    ///
    /// Fails on socket errors or a closed connection.
    pub fn request_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.outgoing.push_str(line);
        write_line(&mut self.writer, &mut self.outgoing)?;
        self.read_line()
    }

    /// Sends a [`Value`] request and decodes the response, unwrapping the
    /// protocol envelope: returns the `"result"` payload of an `"ok"`
    /// response, [`ClientError::Server`] otherwise.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, non-JSON responses, or server errors.
    pub fn request(&mut self, request: &Value) -> Result<Value, ClientError> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one request line and returns without waiting for the
    /// reply; [`Client::recv`] reads it.
    ///
    /// # Errors
    ///
    /// Fails on socket errors.
    pub fn send(&mut self, request: &Value) -> Result<(), ClientError> {
        request.write_json(&mut self.outgoing);
        write_line(&mut self.writer, &mut self.outgoing)?;
        Ok(())
    }

    /// Reads the reply to the last [`Client::send`] and unwraps its
    /// envelope as [`Client::request`] does.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, non-JSON responses, or server errors.
    pub fn recv(&mut self) -> Result<Value, ClientError> {
        let line = self.read_line()?;
        let value =
            parse(&line).map_err(|e| ClientError::Protocol(format!("bad response: {e}")))?;
        match value.get("ok").and_then(Value::as_bool) {
            Some(true) => Ok(into_result(value)),
            Some(false) => {
                let message = value
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string();
                if value.get("fenced").and_then(Value::as_bool) == Some(true) {
                    Err(ClientError::Fenced {
                        generation: value.get("gen").and_then(Value::as_u64).unwrap_or(0),
                        message,
                    })
                } else if value.get("retryable").and_then(Value::as_bool) == Some(true) {
                    Err(ClientError::Retryable(message))
                } else {
                    Err(ClientError::Server(message))
                }
            }
            None => Err(ClientError::Protocol(format!(
                "response missing 'ok': {line}"
            ))),
        }
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed connection".to_string(),
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// The `"result"` member of a success reply, moved out rather than
/// cloned (the last duplicate wins, as in [`Value::get`]); `null` when
/// absent.
fn into_result(reply: Value) -> Value {
    match reply {
        Value::Object(pairs) => pairs
            .into_iter()
            .rev()
            .find(|(key, _)| key == "result")
            .map_or(Value::Null, |(_, value)| value),
        _ => Value::Null,
    }
}

/// How [`RetryClient`] paces its retries: capped exponential backoff
/// with deterministic jitter (a seeded xorshift — no clock, no RNG
/// dependency, reproducible in tests).
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total tries per request, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep (applied before jitter).
    pub max_backoff: Duration,
    /// Seed for the jitter sequence; any value works (0 is remapped).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `retry` (0-based), jittered: the
    /// capped exponential backoff plus up to 50% extra, so stampeding
    /// clients decorrelate.
    fn backoff(&self, retry: u32, jitter_state: &mut u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(retry).unwrap_or(u32::MAX));
        let capped = exp.min(self.max_backoff);
        let nanos = u64::try_from(capped.as_nanos()).unwrap_or(u64::MAX);
        let jitter = xorshift64(jitter_state) % (nanos / 2 + 1);
        capped + Duration::from_nanos(jitter)
    }
}

/// One step of the xorshift64 PRNG — deterministic jitter with no
/// dependencies. `state` must start non-zero ([`RetryClient::new`]
/// remaps a zero seed).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Commands that are safe to send twice. Queries are pure reads, as are
/// the cluster-internal `support_vec`, `pair_supports`,
/// `replicate_pull`, and `integrity` (digests); `promote` and `demote` bump a monotone
/// generation, and `scrub` converges (re-verifying and re-repairing the
/// same artifacts is harmless), so repeating any of them is safe.
/// `ingest` mutates and `shutdown` is one-way-destructive, so a client
/// that cannot tell whether they landed must not repeat them.
fn is_idempotent(request: &Value) -> bool {
    matches!(
        request.get("cmd").and_then(Value::as_str),
        Some(
            "ping"
                | "stats"
                | "chi2"
                | "chi2_batch"
                | "interest"
                | "topk"
                | "border"
                | "support_vec"
                | "pair_supports"
                | "replicate_pull"
                | "integrity"
                | "scrub"
                | "trace"
                | "events"
                | "metrics"
                | "promote"
                | "demote"
        )
    )
}

/// A self-healing client: reconnects after transport failures and
/// retries transient errors with [`RetryPolicy`] backoff.
///
/// Only idempotent commands are retried after the request may have
/// reached the server; connection-establishment failures (nothing sent
/// yet) are retried for every command.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    timeout: Option<Duration>,
    jitter_state: u64,
    conn: Option<Client>,
}

impl RetryClient {
    /// Creates a disconnected retry client; the first request connects.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        let seed = if policy.jitter_seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            policy.jitter_seed
        };
        RetryClient {
            addr: addr.into(),
            policy,
            timeout: None,
            jitter_state: seed,
            conn: None,
        }
    }

    /// Applies a socket read/write timeout to every future connection
    /// (zero means no timeout).
    pub fn with_timeout(mut self, timeout: Duration) -> RetryClient {
        self.timeout = (!timeout.is_zero()).then_some(timeout);
        self
    }

    /// Sends `request`, transparently reconnecting and retrying
    /// transient failures per the policy.
    ///
    /// # Errors
    ///
    /// Returns the final error once attempts are exhausted, or
    /// immediately for permanent failures ([`ClientError::Server`],
    /// [`ClientError::Protocol`]) and for non-idempotent requests whose
    /// outcome is unknown.
    pub fn request(&mut self, request: &Value) -> Result<Value, ClientError> {
        let attempts = self.policy.max_attempts.max(1);
        let idempotent = is_idempotent(request);
        let mut retries = 0u32;
        loop {
            // (Re)connect if needed. A failed connect never sent the
            // request, so it is retryable for every command.
            if self.conn.is_none() {
                match self.connect() {
                    Ok(client) => self.conn = Some(client),
                    Err(e) if retryable_transport(&e) && retries + 1 < attempts => {
                        self.sleep_before_retry(&mut retries);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let conn = match self.conn.as_mut() {
                Some(conn) => conn,
                None => continue,
            };
            match conn.request(request) {
                Ok(value) => return Ok(value),
                Err(ClientError::Retryable(m)) => {
                    // The server explicitly said "try again" — it did
                    // not execute the request, so retrying is safe even
                    // for non-idempotent commands; keep the connection.
                    if retries + 1 < attempts {
                        self.sleep_before_retry(&mut retries);
                        continue;
                    }
                    return Err(ClientError::Retryable(m));
                }
                Err(e) if connection_broken(&e) => {
                    // The request may or may not have been executed:
                    // only idempotent commands may be repeated.
                    self.conn = None;
                    if idempotent && retries + 1 < attempts {
                        self.sleep_before_retry(&mut retries);
                        continue;
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The first half of a request without retries: connects if no
    /// connection is open, then writes `request`. A failure drops the
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns the connect or write error.
    pub fn send(&mut self, request: &Value) -> Result<(), ClientError> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => self.connect()?,
        };
        conn.send(request)?;
        self.conn = Some(conn);
        Ok(())
    }

    /// The second half: reads the reply to the last [`RetryClient::send`].
    /// No retries; a broken connection is dropped, so the next request
    /// reconnects.
    ///
    /// # Errors
    ///
    /// Returns the reply's error, or a protocol error when nothing was
    /// sent.
    pub fn recv(&mut self) -> Result<Value, ClientError> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(ClientError::Protocol("no request in flight".to_string()));
        };
        let result = conn.recv();
        if let Err(e) = &result {
            if connection_broken(e) {
                self.conn = None;
            }
        }
        result
    }

    /// Drops the current connection (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn connect(&self) -> Result<Client, ClientError> {
        match self.timeout {
            Some(t) => Client::connect_timeout(&*self.addr, t),
            None => Client::connect(&*self.addr),
        }
    }

    fn sleep_before_retry(&mut self, retries: &mut u32) {
        let pause = self.policy.backoff(*retries, &mut self.jitter_state);
        *retries += 1;
        std::thread::sleep(pause);
    }
}

/// Whether a connect-time failure is worth another attempt: transport
/// errors and explicit server `retryable` rejections are; protocol
/// violations and permanent server errors are not.
fn retryable_transport(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_) | ClientError::Retryable(_))
}

/// Whether an error means the connection itself is dead (socket error,
/// or the server hung up mid-exchange).
fn connection_broken(e: &ClientError) -> bool {
    matches!(e, ClientError::Io(_))
        || matches!(e, ClientError::Protocol(m) if m.contains("closed connection"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A fenced rejection is permanent for this client's view: it must
    /// surface immediately as [`ClientError::Fenced`] without burning a
    /// single retry — the caller has to re-learn the topology first, so
    /// backing off and resending the same stale generation is pure
    /// waste.
    #[test]
    fn fenced_rejection_is_never_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let requests_served = Arc::new(AtomicUsize::new(0));
        let served = Arc::clone(&requests_served);
        let server = std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            // Serve until the client side closes; every request on every
            // connection is answered with the same fenced rejection.
            while let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut writer = stream;
                writeln!(writer, r#"{{"proto":"bmb/1","ok":true}}"#).expect("banner");
                let mut line = String::new();
                while reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                    served.fetch_add(1, Ordering::SeqCst);
                    writeln!(
                        writer,
                        r#"{{"ok":false,"error":"stale generation","fenced":true,"gen":7}}"#
                    )
                    .expect("fenced line");
                    line.clear();
                }
                break; // one connection is all a correct client needs
            }
        });

        let mut client = RetryClient::new(
            addr.to_string(),
            RetryPolicy {
                max_attempts: 5,
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
        );
        // `replicate_pull` is idempotent, so only the fenced
        // classification — not the idempotency gate — can stop retries.
        let request = Value::object()
            .with("cmd", Value::Str("replicate_pull".to_string()))
            .with("after_epoch", Value::Int(0))
            .with("gen", Value::Int(1));
        match client.request(&request) {
            Err(ClientError::Fenced {
                generation,
                message,
            }) => {
                assert_eq!(generation, 7, "the rejecting node's generation surfaces");
                assert_eq!(message, "stale generation");
            }
            other => panic!("expected Fenced, got {other:?}"),
        }
        assert_eq!(
            requests_served.load(Ordering::SeqCst),
            1,
            "exactly one attempt: fencing must not burn the retry budget"
        );
        client.disconnect();
        drop(client);
        server.join().expect("fake server thread");
    }

    #[test]
    fn idempotency_classification() {
        for cmd in [
            "ping",
            "stats",
            "chi2",
            "chi2_batch",
            "interest",
            "topk",
            "border",
            "support_vec",
            "pair_supports",
            "replicate_pull",
            "integrity",
            "scrub",
            "promote",
            "demote",
        ] {
            let req = Value::object().with("cmd", Value::Str(cmd.to_string()));
            assert!(is_idempotent(&req), "{cmd} should be idempotent");
        }
        for cmd in ["ingest", "shutdown"] {
            let req = Value::object().with("cmd", Value::Str(cmd.to_string()));
            assert!(!is_idempotent(&req), "{cmd} must not be retried");
        }
        assert!(!is_idempotent(&Value::object()));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 7,
        };
        let mut state = 7u64;
        let b0 = policy.backoff(0, &mut state);
        let b3 = policy.backoff(3, &mut state);
        let b7 = policy.backoff(7, &mut state);
        // Base with up to 50% jitter.
        assert!(b0 >= Duration::from_millis(10) && b0 <= Duration::from_millis(15));
        assert!(b3 >= Duration::from_millis(80) && b3 <= Duration::from_millis(120));
        // Capped at max + 50% jitter.
        assert!(b7 >= Duration::from_millis(100) && b7 <= Duration::from_millis(150));
    }

    #[test]
    fn jitter_is_deterministic_for_a_seed() {
        let policy = RetryPolicy::default();
        let mut a = 42u64;
        let mut b = 42u64;
        assert_eq!(policy.backoff(2, &mut a), policy.backoff(2, &mut b));
        assert_eq!(a, b);
    }

    /// The whole backoff schedule — not just one step — is a pure
    /// function of the seed, and every jittered sleep stays within
    /// `[capped, 1.5 * capped]`.
    #[test]
    fn full_backoff_schedule_is_exactly_reproducible() {
        let policy = RetryPolicy {
            max_attempts: 12,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(400),
            jitter_seed: 0xDEAD_BEEF,
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut state = seed;
            (0..12).map(|r| policy.backoff(r, &mut state)).collect()
        };
        let first = schedule(policy.jitter_seed);
        let second = schedule(policy.jitter_seed);
        assert_eq!(first, second, "same seed, same schedule, to the nanosecond");
        let other = schedule(policy.jitter_seed + 1);
        assert_ne!(first, other, "a different seed decorrelates the jitter");
        for (r, &pause) in first.iter().enumerate() {
            let capped = policy
                .base_backoff
                .saturating_mul(1u32.checked_shl(r as u32).unwrap_or(u32::MAX))
                .min(policy.max_backoff);
            assert!(
                pause >= capped,
                "retry {r}: jitter only adds, never subtracts"
            );
            assert!(
                pause <= capped + capped.div_f64(2.0) + Duration::from_nanos(1),
                "retry {r}: jitter bounded by 50% of the capped backoff"
            );
        }
    }

    /// Past the point where the exponential overflows the shift, the
    /// sleep saturates at the cap instead of wrapping back down.
    #[test]
    fn huge_retry_index_saturates_at_cap() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(250),
            jitter_seed: 3,
        };
        let mut state = 3u64;
        for retry in [31u32, 32, 40, 200, u32::MAX] {
            let pause = policy.backoff(retry, &mut state);
            assert!(pause >= Duration::from_millis(250), "retry {retry} at cap");
            assert!(
                pause <= Duration::from_millis(375),
                "retry {retry} jitter cap"
            );
        }
    }

    /// A zero jitter seed would freeze the xorshift at zero forever;
    /// the constructor remaps it to a fixed non-zero state.
    #[test]
    fn zero_seed_is_remapped_to_a_live_state() {
        let client = RetryClient::new(
            "127.0.0.1:1",
            RetryPolicy {
                jitter_seed: 0,
                ..RetryPolicy::default()
            },
        );
        assert_ne!(client.jitter_state, 0);
        let mut state = client.jitter_state;
        assert_ne!(xorshift64(&mut state), 0, "the jitter stream advances");
    }
}
