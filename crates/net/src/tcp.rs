//! Length-prefixed message framing over TCP.
//!
//! One frame per protocol message: `[len: u32][from: u32][to: u32][payload]`
//! (all little-endian), where `len` covers the two ids plus the payload.
//! `from`/`to` are process ids in the cluster's flat id space (repositories
//! first, then clients), which lets many lightweight clients multiplex one
//! worker connection: replies come back tagged with the client they are for.

use std::io::{self, Read, Write};

use quorumcc_sim::ProcId;

/// Largest accepted frame (16 MiB) — a sanity bound against corrupt length
/// prefixes, far above anything the protocol ships.
pub const MAX_FRAME: u32 = 16 << 20;

/// One decoded frame: `(from, to, payload)`.
pub type Frame = (ProcId, ProcId, Vec<u8>);

/// Appends one frame. The socket transports write into a connection's
/// write buffer and flush it once per host turn.
///
/// # Errors
/// `InvalidInput`, with nothing written, for a payload no reader would
/// accept (frame length over `MAX_FRAME`, 16 MiB).
pub fn write_frame(w: &mut impl Write, from: ProcId, to: ProcId, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .and_then(|n| n.checked_add(8))
        .filter(|len| *len <= MAX_FRAME)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("payload of {} bytes exceeds the frame limit", payload.len()),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&from.to_le_bytes())?;
    w.write_all(&to.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame from a blocking reader; `Err(UnexpectedEof)` on clean
/// shutdown.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let len = u32::from_le_bytes(word);
    if !(8..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    r.read_exact(&mut word)?;
    let from = ProcId::from_le_bytes(word);
    r.read_exact(&mut word)?;
    let to = ProcId::from_le_bytes(word);
    let mut payload = vec![0u8; len as usize - 8];
    r.read_exact(&mut payload)?;
    Ok((from, to, payload))
}

/// Drains every *complete* frame from a growing byte buffer — the
/// nonblocking-socket counterpart of [`read_frame`]. Both socket
/// transports append whatever a nonblocking read returned and call this;
/// a partial frame's bytes stay in `buf` for the next read.
///
/// # Errors
/// `InvalidData` on a corrupt length prefix (the connection is beyond
/// recovery: framing has lost sync).
pub fn drain_frames(buf: &mut Vec<u8>) -> io::Result<Vec<Frame>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= 4 {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap());
        if !(8..=MAX_FRAME).contains(&len) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        let total = 4 + len as usize;
        if buf.len() - pos < total {
            break;
        }
        let from = ProcId::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let to = ProcId::from_le_bytes(buf[pos + 8..pos + 12].try_into().unwrap());
        out.push((from, to, buf[pos + 12..pos + total].to_vec()));
        pos += total;
    }
    buf.drain(..pos);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_socket_pair() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write_frame(&mut s, 7, 2, b"hello").unwrap();
            write_frame(&mut s, 8, 3, &[]).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        assert_eq!(read_frame(&mut conn).unwrap(), (7, 2, b"hello".to_vec()));
        assert_eq!(read_frame(&mut conn).unwrap(), (8, 3, Vec::new()));
        client.join().unwrap();
        assert_eq!(
            read_frame(&mut conn).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn corrupt_length_is_rejected() {
        let buf = u32::MAX.to_le_bytes();
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn drain_decodes_frames_at_every_split_point() {
        // Two frames back to back; feed the stream byte by byte and
        // check the incremental decoder yields exactly the blocking
        // decoder's frames, no matter where reads split.
        let mut stream = Vec::new();
        write_frame(&mut stream, 7, 2, b"hello").unwrap();
        write_frame(&mut stream, 8, 3, &[]).unwrap();
        for split in 0..=stream.len() {
            let mut buf = Vec::new();
            let mut got = Vec::new();
            buf.extend_from_slice(&stream[..split]);
            got.extend(drain_frames(&mut buf).unwrap());
            buf.extend_from_slice(&stream[split..]);
            got.extend(drain_frames(&mut buf).unwrap());
            assert!(buf.is_empty(), "split {split} left bytes");
            assert_eq!(
                got,
                vec![(7, 2, b"hello".to_vec()), (8, 3, Vec::new())],
                "split {split}"
            );
        }
    }

    #[test]
    fn oversized_payload_is_refused_before_any_byte_is_written() {
        let mut out = Vec::new();
        let payload = vec![0u8; MAX_FRAME as usize - 7];
        let err = write_frame(&mut out, 1, 2, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
        // The largest legal frame still round-trips.
        write_frame(&mut out, 1, 2, &payload[1..]).unwrap();
        assert_eq!(
            read_frame(&mut &out[..]).unwrap().2.len(),
            payload.len() - 1
        );
    }

    #[test]
    fn drain_rejects_corrupt_length() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        assert_eq!(
            drain_frames(&mut buf).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
