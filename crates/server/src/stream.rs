//! Transport abstraction: TCP and Unix-domain stream sockets behind one
//! pair of enums, so the event loop and the load generator are
//! transport-agnostic. TCP is the deployment transport; UDS removes the
//! loopback network stack from local benches, isolating protocol and
//! event-loop cost.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

/// A connected stream socket.
#[derive(Debug)]
pub enum Stream {
    /// TCP (deployment).
    Tcp(TcpStream),
    /// Unix-domain (local benches, CI smoke).
    Unix(UnixStream),
}

impl Stream {
    /// The raw fd for epoll registration.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Switches blocking mode.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }

    /// Sets a read timeout (blocking clients use this to bound waits).
    pub fn set_read_timeout(&self, dur: Option<std::time::Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    // Without this the default writes the first non-empty slice only.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A bound, non-blocking listener shared by the worker threads.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (the bound path is removed on drop by the
    /// server that owns it).
    Unix(UnixListener),
}

impl Listener {
    /// Binds a non-blocking TCP listener.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        let l = TcpListener::bind(addr)?;
        l.set_nonblocking(true)?;
        Ok(Listener::Tcp(l))
    }

    /// Binds a non-blocking Unix-domain listener, replacing any stale
    /// socket file at `path`.
    pub fn bind_uds(path: &Path) -> io::Result<Listener> {
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path)?;
        l.set_nonblocking(true)?;
        Ok(Listener::Unix(l))
    }

    /// The raw fd for epoll registration.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    /// Accepts one pending connection, already set non-blocking.
    /// `WouldBlock` means the backlog is drained.
    pub fn accept(&self) -> io::Result<Stream> {
        let stream = match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        };
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// The TCP listener's bound address (for `bind_tcp("…:0")`).
    pub fn local_addr_tcp(&self) -> Option<std::net::SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }
}

/// Where to reach a server — the client-side counterpart of
/// [`Listener`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// `host:port`.
    Tcp(String),
    /// Socket-file path.
    Uds(PathBuf),
}

impl Endpoint {
    /// Opens a *blocking* stream to the endpoint (load-gen clients use
    /// plain blocking I/O; only the server side is evented).
    pub fn connect(&self) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => Ok(Stream::Tcp(TcpStream::connect(addr)?)),
            Endpoint::Uds(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            Endpoint::Uds(path) => write!(f, "uds://{}", path.display()),
        }
    }
}
