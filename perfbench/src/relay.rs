//! A loopback TCP relay that counts the bytes each direction carries.
//!
//! The traced run points its clients at the relay instead of the
//! server, so request and response bytes are counted on the wire
//! without touching the program. The untraced run never uses it.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running relay: accepts on [`Relay::addr`], forwards to one
/// upstream address.
pub struct Relay {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    to_server: Arc<AtomicU64>,
    to_client: Arc<AtomicU64>,
    acceptor: JoinHandle<()>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Relay {
    /// Binds an ephemeral loopback port and starts forwarding every
    /// connection made to it to `upstream`.
    pub fn start(upstream: SocketAddr) -> io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let to_server = Arc::new(AtomicU64::new(0));
        let to_client = Arc::new(AtomicU64::new(0));
        let pumps = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let (stop, to_server, to_client, pumps) = (
                Arc::clone(&stop),
                Arc::clone(&to_server),
                Arc::clone(&to_client),
                Arc::clone(&pumps),
            );
            std::thread::Builder::new()
                .name("relay-accept".into())
                .spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        let client = match listener.accept() {
                            Ok((client, _)) => client,
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                                continue;
                            }
                            Err(_) => continue,
                        };
                        let Ok(server) = TcpStream::connect(upstream) else {
                            continue;
                        };
                        if client.set_nonblocking(false).is_err() {
                            continue;
                        }
                        let mut started = pumps.lock().unwrap_or_else(PoisonError::into_inner);
                        for (from, to, counter) in [
                            (&client, &server, &to_server),
                            (&server, &client, &to_client),
                        ] {
                            if let Some(pump) = pump(from, to, Arc::clone(counter)) {
                                started.push(pump);
                            }
                        }
                    }
                })?
        };
        Ok(Relay {
            addr,
            stop,
            to_server,
            to_client,
            acceptor,
            pumps,
        })
    }

    /// Where clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bytes forwarded so far: `(client → server, server → client)`.
    pub fn bytes(&self) -> (u64, u64) {
        (
            self.to_server.load(Ordering::SeqCst),
            self.to_client.load(Ordering::SeqCst),
        )
    }

    /// Stops accepting and waits for every forwarding thread. Call it
    /// after the clients closed and the server shut down, so every
    /// forwarded connection has reached end of stream.
    pub fn join(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.acceptor.join().expect("relay accept thread panicked");
        let pumps = std::mem::take(&mut *self.pumps.lock().unwrap_or_else(PoisonError::into_inner));
        for pump in pumps {
            pump.join().expect("relay forwarding thread panicked");
        }
    }
}

/// Copies `from` to `to` until end of stream, counting bytes, then
/// half-closes `to` so the far side sees the end too.
fn pump(from: &TcpStream, to: &TcpStream, counter: Arc<AtomicU64>) -> Option<JoinHandle<()>> {
    let (mut from, mut to) = (from.try_clone().ok()?, to.try_clone().ok()?);
    from.set_nodelay(true).ok()?;
    to.set_nodelay(true).ok()?;
    std::thread::Builder::new()
        .name("relay-pump".into())
        .spawn(move || {
            let mut buf = vec![0u8; 1 << 16];
            while let Ok(n) = from.read(&mut buf) {
                if n == 0 || to.write_all(&buf[..n]).is_err() {
                    break;
                }
                counter.fetch_add(n as u64, Ordering::SeqCst);
            }
            let _ = to.shutdown(Shutdown::Write);
        })
        .ok()
}
