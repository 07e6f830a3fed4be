//! The typed request/response API the service path speaks.
//!
//! Engine code exposes raw [`oltp::Session`] calls; the service layer
//! never hands those to the network. Instead every client interaction is
//! one of the [`Request`] variants below, and every answer one of the
//! [`Response`] variants — the wire module maps them 1:1 onto frames,
//! and the dispatcher pattern-matches on them. This is what lets the
//! batching dispatcher coalesce [`Request::Execute`]s per core without
//! knowing anything about statement contents. (Group commit lives below
//! this layer, in the engines' WALs: `storage::wal` flushes a group of
//! commits per epoch.)

use oltp::OltpError;

use crate::wire::{busy_error, error_frame, Frame};

/// A client-to-server request, decoded and validated from the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open the connection.
    Startup {
        /// Client-chosen connection id (unique per client).
        conn: u64,
    },
    /// Name the stored procedure to run.
    Parse {
        /// Procedure name; must match a procedure the service registered.
        stmt: String,
    },
    /// Bind integer arguments for the parsed statement.
    Bind {
        /// Argument values (the benchmark procedures draw their own keys;
        /// arguments are opaque to the dispatcher).
        args: Vec<i64>,
    },
    /// Execute the bound statement. The only variant that reaches an
    /// engine session; everything else is answered by the front end.
    Execute,
    /// End of pipeline; client wants a [`Response::Ready`].
    Sync,
    /// Close the connection.
    Terminate,
}

/// A server-to-client response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Ready for the next pipeline.
    Ready,
    /// Parse accepted.
    ParseComplete,
    /// Bind accepted.
    BindComplete,
    /// Execute committed; `rows` rows touched.
    Complete {
        /// Rows the procedure reported touching.
        rows: u64,
    },
    /// Admission control shed the request at queue depth `depth`.
    Busy {
        /// Queue depth observed at shed time.
        depth: u32,
    },
    /// Execution failed with an engine error.
    Error {
        /// The engine error; crosses the wire as its stable code.
        error: OltpError,
    },
}

impl Request {
    /// Map a decoded client frame to a request. Server frames are a
    /// protocol violation from a client and map to `Err`.
    pub fn from_frame(frame: Frame) -> Result<Request, OltpError> {
        Ok(match frame {
            Frame::Startup { conn } => Request::Startup { conn },
            Frame::Parse { stmt } => Request::Parse { stmt },
            Frame::Bind { args } => Request::Bind { args },
            Frame::Execute => Request::Execute,
            Frame::Sync => Request::Sync,
            Frame::Terminate => Request::Terminate,
            _ => return Err(OltpError::Unsupported("server frame from client")),
        })
    }

    /// The wire frame for this request.
    pub fn to_frame(&self) -> Frame {
        match self {
            Request::Startup { conn } => Frame::Startup { conn: *conn },
            Request::Parse { stmt } => Frame::Parse { stmt: stmt.clone() },
            Request::Bind { args } => Frame::Bind { args: args.clone() },
            Request::Execute => Frame::Execute,
            Request::Sync => Frame::Sync,
            Request::Terminate => Frame::Terminate,
        }
    }
}

impl Response {
    /// The wire frame for this response.
    pub fn to_frame(&self) -> Frame {
        match self {
            Response::Ready => Frame::Ready,
            Response::ParseComplete => Frame::ParseComplete,
            Response::BindComplete => Frame::BindComplete,
            Response::Complete { rows } => Frame::Complete { rows: *rows },
            Response::Busy { depth } => Frame::Busy { depth: *depth },
            Response::Error { error } => error_frame(error),
        }
    }

    /// Map a decoded server frame back to a response (client side).
    pub fn from_frame(frame: Frame) -> Result<Response, OltpError> {
        Ok(match frame {
            Frame::Ready => Response::Ready,
            Frame::ParseComplete => Response::ParseComplete,
            Frame::BindComplete => Response::BindComplete,
            Frame::Complete { rows } => Response::Complete { rows },
            Frame::Busy { depth } => Response::Busy { depth },
            Frame::Error { code, .. } => Response::Error {
                error: OltpError::from_code(&code)
                    .unwrap_or(OltpError::Unsupported("unknown error code")),
            },
            _ => return Err(OltpError::Unsupported("client frame from server")),
        })
    }

    /// The engine error this response reports, if it reports one.
    /// [`Response::Busy`] maps to the canonical retryable
    /// [`busy_error`].
    pub fn as_error(&self) -> Option<OltpError> {
        match self {
            Response::Busy { .. } => Some(busy_error()),
            Response::Error { error } => Some(error.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oltp::TableId;

    #[test]
    fn requests_round_trip_through_frames() {
        let reqs = [
            Request::Startup { conn: 17 },
            Request::Parse {
                stmt: "micro".into(),
            },
            Request::Bind { args: vec![3, 4] },
            Request::Execute,
            Request::Sync,
            Request::Terminate,
        ];
        for r in reqs {
            assert_eq!(Request::from_frame(r.to_frame()).unwrap(), r);
        }
        assert!(Request::from_frame(Frame::Ready).is_err());
    }

    #[test]
    fn responses_round_trip_through_frames() {
        let resps = [
            Response::Ready,
            Response::ParseComplete,
            Response::BindComplete,
            Response::Complete { rows: 3 },
            Response::Busy { depth: 12 },
        ];
        for r in resps {
            assert_eq!(Response::from_frame(r.to_frame()).unwrap(), r);
        }
        assert!(Response::from_frame(Frame::Execute).is_err());
    }

    #[test]
    fn error_response_survives_the_wire_as_its_code() {
        let r = Response::Error {
            error: OltpError::DeadlockVictim {
                table: TableId(4),
                key: 9,
            },
        };
        let back = Response::from_frame(r.to_frame()).unwrap();
        let Response::Error { error } = back else {
            panic!("expected error response");
        };
        // Payloads are lossy; the code (and so the retry class) is not.
        assert_eq!(error.code(), "40P01");
    }
}
