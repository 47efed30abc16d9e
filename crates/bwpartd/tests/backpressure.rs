//! Reactor backpressure regressions, each on a one-worker service:
//!
//! * a pipelined batch whose replies pass
//!   [`WRITE_BUFFER_CAP`](bwpartd::server::WRITE_BUFFER_CAP) is answered
//!   in full, whether or not the client half-closes after sending it;
//! * a client that pipelines and never reads is pushed back by TCP after
//!   a bounded number of bytes, and a second client on the same worker is
//!   still answered promptly.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use bwpartd::protocol::{self, Response};
use bwpartd::server::WRITE_BUFFER_CAP;
use bwpartd::{serve, Client, Codec, Request, ServeConfig, ServerHandle};

/// Registered applications: enough that one JSON `Snapshot` reply is
/// several KB.
const APPS: usize = 40;
/// Pipelined `Snapshot` requests per batch.
const BATCH: usize = 1500;

fn one_worker(read_timeout: Duration) -> ServerHandle {
    let handle = serve(ServeConfig {
        workers: 1,
        epoch_interval: Duration::from_secs(3600),
        read_timeout,
        ..ServeConfig::default()
    })
    .expect("bind on loopback");
    let mut c = Client::connect(handle.addr()).expect("connect");
    for i in 0..APPS {
        c.register(
            &format!("pipelined-reporter-{i:03}"),
            0.001 + 1e-5 * i as f64,
        )
        .expect("register");
    }
    handle
}

fn snapshot_frame() -> Vec<u8> {
    protocol::encode_with(&Request::Snapshot, Codec::Json).expect("encode")
}

/// Send `BATCH` pipelined `Snapshot` requests in one write (then
/// half-close if asked), and read replies until the batch is answered or
/// the server closes. Returns the replies counted and the bytes of one.
fn answer_batch(handle: &ServerHandle, half_close: bool) -> (usize, usize) {
    let mut s = TcpStream::connect(handle.addr()).expect("connect");
    s.write_all(&snapshot_frame().repeat(BATCH))
        .expect("write batch");
    if half_close {
        s.shutdown(Shutdown::Write).expect("half-close");
    }
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let (mut buf, mut pos, mut replies, mut reply_len) = (Vec::new(), 0, 0, 0);
    let mut chunk = vec![0u8; 64 * 1024];
    while replies < BATCH {
        match protocol::decode::<Response>(&buf[pos..]).expect("well-formed reply") {
            Some((Response::Snapshot(snap), used)) => {
                assert_eq!(snap.apps.len(), APPS);
                pos += used;
                reply_len = used;
                replies += 1;
                continue;
            }
            Some((other, _)) => panic!("unexpected reply {other:?}"),
            None => {}
        }
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read after {replies} replies: {e}"),
        }
    }
    if half_close && replies == BATCH {
        // Everything answered: the server closes the half-closed socket.
        assert_eq!(s.read(&mut chunk).expect("read EOF"), 0);
    }
    (replies, reply_len)
}

#[test]
fn pipelined_batch_past_the_reply_cap_is_answered_in_full() {
    let handle = one_worker(Duration::from_secs(2));
    for half_close in [false, true] {
        let (replies, reply_len) = answer_batch(&handle, half_close);
        assert_eq!(
            replies, BATCH,
            "half_close={half_close}: {replies} of {BATCH} pipelined requests answered"
        );
        assert!(
            BATCH * reply_len > 4 * WRITE_BUFFER_CAP,
            "the batch's replies ({reply_len} B each) must overflow the cap"
        );
    }
}

#[test]
fn client_that_never_reads_is_pushed_back_and_others_stay_served() {
    const LIMIT: usize = 64 << 20;
    let handle = one_worker(Duration::from_secs(30));
    let mut flood = TcpStream::connect(handle.addr()).expect("connect");
    flood.set_nonblocking(true).expect("nonblocking");
    let batch = snapshot_frame().repeat(4096);
    let (mut sent, mut off) = (0usize, 0usize);
    let mut stalled_since: Option<Instant> = None;
    // Write until TCP refuses every byte for half a second.
    while stalled_since.is_none_or(|t| t.elapsed() < Duration::from_millis(500)) {
        match flood.write(&batch[off..]) {
            Ok(n) => {
                sent += n;
                off = (off + n) % batch.len();
                stalled_since = None;
                assert!(
                    sent <= LIMIT,
                    "the service kept reading past {LIMIT} B from a client that never reads"
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                stalled_since.get_or_insert_with(Instant::now);
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("flood write after {sent} B: {e}"),
        }
    }

    let t0 = Instant::now();
    let mut other = Client::connect(handle.addr()).expect("connect");
    other
        .set_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    other.register("bystander", 0.002).expect("register");
    assert_eq!(other.snapshot().expect("snapshot").apps.len(), APPS + 1);
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "a second client on the flooded worker waited {took:?}"
    );
    drop(flood);
}
