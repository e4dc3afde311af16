//! The typed client SDK.
//!
//! [`GatewayClient`] is the caller-facing surface over a [`Gateway`]:
//! deploy a function and fire single invocations that block (in
//! virtual time) until their reply lands.

use prebake_runtime::http::Request;

use crate::gateway::{ArrivalOutcome, Gateway, GatewayError, InvokeReply};

/// A typed client bound to one [`Gateway`].
pub struct GatewayClient {
    gateway: Gateway,
}

impl GatewayClient {
    /// Wraps a gateway.
    pub fn new(gateway: Gateway) -> GatewayClient {
        GatewayClient { gateway }
    }

    /// The wrapped gateway (metrics, platform, replies).
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Mutable access to the wrapped gateway, for callers that mix raw
    /// [`Gateway::arrive`] offers with client-level invocations.
    pub fn gateway_mut(&mut self) -> &mut Gateway {
        &mut self.gateway
    }

    /// Unwraps the client back into its gateway.
    pub fn into_gateway(self) -> Gateway {
        self.gateway
    }

    /// Deploys `function`.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Platform`] if the function image is unknown.
    pub fn deploy(&mut self, function: &str) -> Result<(), GatewayError> {
        self.gateway.deploy(function)
    }

    /// Invokes `function` now and blocks (in virtual time) until its
    /// reply lands.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Shed`] if admission rejected the invocation;
    /// platform errors otherwise.
    pub fn invoke(&mut self, function: &str, req: Request) -> Result<InvokeReply, GatewayError> {
        let at = self.gateway.now();
        let before = self.gateway.replies().len();
        match self.gateway.arrive(at, function, req)? {
            ArrivalOutcome::Shed => {
                return Err(GatewayError::Shed {
                    function: function.to_owned(),
                })
            }
            ArrivalOutcome::Cached => {}
            ArrivalOutcome::Admitted | ArrivalOutcome::Queued => self.gateway.drain()?,
        }
        Ok(self
            .gateway
            .replies()
            .get(before)
            .cloned()
            .expect("drained invocation produced a reply"))
    }
}
