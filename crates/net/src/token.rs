//! Reconnect tokens: the opaque, signed session handle every
//! [`crate::wire::WireMessage::Welcome`] carries and a client echoes
//! back in [`crate::wire::WireMessage::Resume`].
//!
//! A token binds the session identity (`game`, `room`, `player`) and
//! the time it was issued to a 64-bit MAC: SipHash under a [`TokenKey`]
//! the server draws at random when it starts and never sends. Every
//! byte a peer sends is treated as hostile: a peer that knows all of
//! the server's configuration (world seed included) and holds tokens of
//! its own still cannot mint one, and a token from one server instance
//! does not verify at another. The fields are plaintext, so a client
//! can read its own identity and the server clock when the token was
//! issued; it cannot change them without breaking the MAC.
//!
//! The resume TTL is the server's, not the token's: it runs from the
//! moment the session was parked (its socket died), on the server's
//! clock, whatever `issued_ms` says.

use crate::wire::{game_from_wire, game_to_wire, TOKEN_BYTES};
use coterie_world::GameId;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// The key tokens are signed with: SipHash keyed by 128 random bits
/// that the standard library draws per process and varies per key, so
/// two keys (two servers in one process included) never agree.
#[derive(Debug)]
pub struct TokenKey(RandomState);

impl TokenKey {
    /// A fresh random key.
    pub fn random() -> Self {
        TokenKey(RandomState::new())
    }

    /// MAC over the token's identity fields.
    fn mac(&self, game: u8, room: u32, player: u32, issued_ms: u64) -> u64 {
        self.0.hash_one((game, room, player, issued_ms))
    }
}

/// The verified contents of a reconnect token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeToken {
    /// Game of the parked session.
    pub game: GameId,
    /// Room of the parked session.
    pub room: u32,
    /// Player id within the room.
    pub player: u32,
    /// Server clock when the token was issued, ms. It makes two tokens
    /// for one seat differ; the TTL does not read it.
    pub issued_ms: u64,
}

impl ResumeToken {
    /// Mints the signed wire bytes for this token.
    pub fn sign(&self, key: &TokenKey) -> [u8; TOKEN_BYTES] {
        let game = game_to_wire(self.game);
        let sig = key.mac(game, self.room, self.player, self.issued_ms);
        let mut out = [0u8; TOKEN_BYTES];
        out[0] = game;
        out[1..5].copy_from_slice(&self.room.to_le_bytes());
        out[5..9].copy_from_slice(&self.player.to_le_bytes());
        out[9..17].copy_from_slice(&self.issued_ms.to_le_bytes());
        out[17..25].copy_from_slice(&sig.to_le_bytes());
        out
    }

    /// Verifies the MAC and decodes the token. Returns `None` for a
    /// forged/corrupt signature or an unknown game code.
    pub fn verify(bytes: &[u8; TOKEN_BYTES], key: &TokenKey) -> Option<ResumeToken> {
        let game_code = bytes[0];
        let room = u32::from_le_bytes(bytes[1..5].try_into().unwrap());
        let player = u32::from_le_bytes(bytes[5..9].try_into().unwrap());
        let issued_ms = u64::from_le_bytes(bytes[9..17].try_into().unwrap());
        let sig = u64::from_le_bytes(bytes[17..25].try_into().unwrap());
        if key.mac(game_code, room, player, issued_ms) != sig {
            return None;
        }
        let game = game_from_wire(game_code).ok()?;
        Some(ResumeToken {
            game,
            room,
            player,
            issued_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ResumeToken {
        ResumeToken {
            game: GameId::VikingVillage,
            room: 3,
            player: 1,
            issued_ms: 41_250,
        }
    }

    #[test]
    fn sign_verify_round_trips() {
        let key = TokenKey::random();
        let t = sample();
        let bytes = t.sign(&key);
        assert_eq!(ResumeToken::verify(&bytes, &key), Some(t));
    }

    #[test]
    fn wrong_secret_fails_verification() {
        let bytes = sample().sign(&TokenKey::random());
        assert_eq!(ResumeToken::verify(&bytes, &TokenKey::random()), None);
    }

    #[test]
    fn any_flipped_bit_fails_verification() {
        let key = TokenKey::random();
        let bytes = sample().sign(&key);
        for byte in 0..TOKEN_BYTES {
            for bit in 0..8 {
                let mut tampered = bytes;
                tampered[byte] ^= 1 << bit;
                assert_eq!(
                    ResumeToken::verify(&tampered, &key),
                    None,
                    "flip of byte {byte} bit {bit} must invalidate the MAC"
                );
            }
        }
    }

    #[test]
    fn issued_ms_is_inside_the_signed_region() {
        // Rewriting the issue time without re-signing must fail.
        let key = TokenKey::random();
        let mut tampered = sample().sign(&key);
        tampered[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(ResumeToken::verify(&tampered, &key), None);
    }

    /// The inverse of the splitmix64 finaliser (each step of it is a
    /// bijection on `u64`).
    fn unmix(mut x: u64) -> u64 {
        fn inverse(c: u64) -> u64 {
            // Newton's iteration for an odd number's inverse mod 2^64.
            (0..6).fold(c, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i)))
            })
        }
        x ^= (x >> 31) ^ (x >> 62);
        x = x.wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        x ^= (x >> 27) ^ (x >> 54);
        x = x.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        x ^= (x >> 30) ^ (x >> 60);
        x.wrapping_sub(0x9E37_79B9_7F4A_7C15)
    }

    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// A MAC that is a chain of invertible mixes absorbing known fields
    /// gives its keyed state away with one token: unwind the chain from
    /// the tag, then sign anything. A peer that tries that on its own
    /// token must not get a seat it was never given.
    #[test]
    fn one_token_does_not_give_away_the_key() {
        let key = TokenKey::random();
        let own = sample();
        let bytes = own.sign(&key);
        let tag = u64::from_le_bytes(bytes[17..25].try_into().unwrap());
        let mut h = unmix(tag) ^ own.issued_ms;
        h = unmix(h) ^ ((own.player as u64) << 32);
        h = unmix(h) ^ own.room as u64;
        let keyed = unmix(h) ^ game_to_wire(own.game) as u64;
        for x in [0, 1, tag, keyed, u64::MAX] {
            assert_eq!(unmix(mix(x)), x);
        }

        let stolen = ResumeToken {
            player: own.player + 1,
            ..own
        };
        let mut forged = [0u8; TOKEN_BYTES];
        forged[..17].copy_from_slice(&stolen.sign(&TokenKey::random())[..17]);
        let mut h = mix(keyed ^ game_to_wire(stolen.game) as u64);
        h = mix(h ^ stolen.room as u64);
        h = mix(h ^ ((stolen.player as u64) << 32));
        h = mix(h ^ stolen.issued_ms);
        forged[17..].copy_from_slice(&h.to_le_bytes());
        assert_eq!(ResumeToken::verify(&forged, &key), None);
    }
}
