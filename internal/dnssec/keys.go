package dnssec

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"

	"github.com/extended-dns-errors/edelab/internal/dnswire"
)

// Errors from key operations and signature verification.
var (
	ErrUnsupportedAlgorithm = errors.New("dnssec: unsupported algorithm")
	ErrBadSignature         = errors.New("dnssec: signature verification failed")
	ErrBadPublicKey         = errors.New("dnssec: malformed public key")
)

// KeyPair is a DNSSEC signing key: the private half plus everything needed
// to publish and identify the public half.
type KeyPair struct {
	Alg   Algorithm
	Flags uint16 // dnswire.DNSKEYFlagZone, optionally |DNSKEYFlagSEP

	pubWire []byte
	priv    privateKey
}

type privateKey interface {
	sign(data []byte) ([]byte, error)
}

// GenerateKey creates a key pair for alg. flags should be 256 for a ZSK or
// 257 for a KSK. bits selects the RSA modulus size and is ignored for other
// algorithms; 0 means a sensible default.
func GenerateKey(alg Algorithm, flags uint16, bits int) (*KeyPair, error) {
	kp := &KeyPair{Alg: alg, Flags: flags}
	switch alg {
	case AlgRSASHA1, AlgRSASHA1NSEC3SHA1, AlgRSASHA256, AlgRSASHA512:
		if bits == 0 {
			bits = 1024
		}
		priv, err := rsa.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("dnssec: rsa keygen: %w", err)
		}
		kp.priv = &rsaKey{priv: priv, hash: rsaHash(alg)}
		kp.pubWire = encodeRSAPublic(&priv.PublicKey)
	case AlgECDSAP256SHA256:
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("dnssec: ecdsa keygen: %w", err)
		}
		kp.priv = &ecdsaKey{priv: priv, hash: crypto.SHA256, fieldBytes: 32}
		kp.pubWire = encodeECDSAPublic(&priv.PublicKey, 32)
	case AlgECDSAP384SHA384:
		priv, err := ecdsa.GenerateKey(elliptic.P384(), rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("dnssec: ecdsa keygen: %w", err)
		}
		kp.priv = &ecdsaKey{priv: priv, hash: crypto.SHA384, fieldBytes: 48}
		kp.pubWire = encodeECDSAPublic(&priv.PublicKey, 48)
	case AlgED25519:
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("dnssec: ed25519 keygen: %w", err)
		}
		kp.priv = ed25519Key{priv: priv}
		kp.pubWire = []byte(pub)
	case AlgRSAMD5, AlgDSA, AlgDSANSEC3SHA1, AlgECCGOST, AlgED448, AlgUnassigned, AlgReserved:
		seed := make([]byte, standinSeedLen(alg))
		if _, err := rand.Read(seed); err != nil {
			return nil, err
		}
		kp.priv = standinKey{alg: alg, seed: seed}
		kp.pubWire = seed
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedAlgorithm, alg)
	}
	return kp, nil
}

// DNSKEY returns the public key as DNSKEY RDATA.
func (k *KeyPair) DNSKEY() dnswire.DNSKEY {
	return dnswire.DNSKEY{
		Flags:     k.Flags,
		Protocol:  3,
		Algorithm: uint8(k.Alg),
		PublicKey: append([]byte(nil), k.pubWire...),
	}
}

// KeyTag returns the RFC 4034 Appendix B key tag of the public key.
func (k *KeyPair) KeyTag() uint16 { return k.DNSKEY().KeyTag() }

// Sign signs data with the private key.
func (k *KeyPair) Sign(data []byte) ([]byte, error) { return k.priv.sign(data) }

// --- RSA (RFC 3110, RFC 5702) ---

type rsaKey struct {
	priv *rsa.PrivateKey
	hash crypto.Hash
}

func rsaHash(alg Algorithm) crypto.Hash {
	switch alg {
	case AlgRSASHA256:
		return crypto.SHA256
	case AlgRSASHA512:
		return crypto.SHA512
	default:
		return crypto.SHA1
	}
}

func (k *rsaKey) sign(data []byte) ([]byte, error) {
	h := k.hash.New()
	h.Write(data)
	return rsa.SignPKCS1v15(rand.Reader, k.priv, k.hash, h.Sum(nil))
}

func encodeRSAPublic(pub *rsa.PublicKey) []byte {
	e := big.NewInt(int64(pub.E)).Bytes()
	var out []byte
	if len(e) < 256 {
		out = append(out, byte(len(e)))
	} else {
		out = append(out, 0, byte(len(e)>>8), byte(len(e)))
	}
	out = append(out, e...)
	return append(out, pub.N.Bytes()...)
}

func parseRSAPublic(wire []byte) (*rsa.PublicKey, error) {
	if len(wire) < 3 {
		return nil, ErrBadPublicKey
	}
	expLen := int(wire[0])
	off := 1
	if expLen == 0 {
		if len(wire) < 4 {
			return nil, ErrBadPublicKey
		}
		expLen = int(wire[1])<<8 | int(wire[2])
		off = 3
	}
	if len(wire) < off+expLen+1 {
		return nil, ErrBadPublicKey
	}
	e := new(big.Int).SetBytes(wire[off : off+expLen])
	if !e.IsInt64() || e.Int64() > 1<<31 || e.Int64() < 3 {
		return nil, ErrBadPublicKey
	}
	n := new(big.Int).SetBytes(wire[off+expLen:])
	return &rsa.PublicKey{N: n, E: int(e.Int64())}, nil
}

// RSAKeyBits returns the modulus size in bits of an RSA DNSKEY public key,
// or 0 if the key does not parse. Used for key-size floors.
func RSAKeyBits(pubWire []byte) int {
	pub, err := parseRSAPublic(pubWire)
	if err != nil {
		return 0
	}
	return pub.N.BitLen()
}

// --- ECDSA (RFC 6605) ---

type ecdsaKey struct {
	priv       *ecdsa.PrivateKey
	hash       crypto.Hash
	fieldBytes int
}

func (k *ecdsaKey) sign(data []byte) ([]byte, error) {
	h := k.hash.New()
	h.Write(data)
	r, s, err := ecdsa.Sign(rand.Reader, k.priv, h.Sum(nil))
	if err != nil {
		return nil, err
	}
	sig := make([]byte, 2*k.fieldBytes)
	r.FillBytes(sig[:k.fieldBytes])
	s.FillBytes(sig[k.fieldBytes:])
	return sig, nil
}

func encodeECDSAPublic(pub *ecdsa.PublicKey, fieldBytes int) []byte {
	out := make([]byte, 2*fieldBytes)
	pub.X.FillBytes(out[:fieldBytes])
	pub.Y.FillBytes(out[fieldBytes:])
	return out
}

// --- Ed25519 (RFC 8080) ---

type ed25519Key struct{ priv ed25519.PrivateKey }

func (k ed25519Key) sign(data []byte) ([]byte, error) {
	return ed25519.Sign(k.priv, data), nil
}

// Verify checks sig over data with the given DNSKEY public key material.
// Stand-in algorithms verify via their deterministic construction; the
// caller decides separately whether its SupportSet even attempts this.
func Verify(alg Algorithm, pubWire, data, sig []byte) error {
	switch alg {
	case AlgRSASHA1, AlgRSASHA1NSEC3SHA1, AlgRSASHA256, AlgRSASHA512:
		pub, err := parseRSAPublic(pubWire)
		if err != nil {
			return err
		}
		hash := rsaHash(alg)
		h := hash.New()
		h.Write(data)
		if err := rsa.VerifyPKCS1v15(pub, hash, h.Sum(nil), sig); err != nil {
			return ErrBadSignature
		}
		return nil
	case AlgECDSAP256SHA256, AlgECDSAP384SHA384:
		fieldBytes := 32
		curve := elliptic.P256()
		hash := crypto.SHA256
		if alg == AlgECDSAP384SHA384 {
			fieldBytes, curve, hash = 48, elliptic.P384(), crypto.SHA384
		}
		if len(pubWire) != 2*fieldBytes || len(sig) != 2*fieldBytes {
			return ErrBadPublicKey
		}
		pub := &ecdsa.PublicKey{
			Curve: curve,
			X:     new(big.Int).SetBytes(pubWire[:fieldBytes]),
			Y:     new(big.Int).SetBytes(pubWire[fieldBytes:]),
		}
		h := hash.New()
		h.Write(data)
		r := new(big.Int).SetBytes(sig[:fieldBytes])
		s := new(big.Int).SetBytes(sig[fieldBytes:])
		if !ecdsa.Verify(pub, h.Sum(nil), r, s) {
			return ErrBadSignature
		}
		return nil
	case AlgED25519:
		if len(pubWire) != ed25519.PublicKeySize {
			return ErrBadPublicKey
		}
		if !ed25519.Verify(ed25519.PublicKey(pubWire), data, sig) {
			return ErrBadSignature
		}
		return nil
	case AlgRSAMD5, AlgDSA, AlgDSANSEC3SHA1, AlgECCGOST, AlgED448, AlgUnassigned, AlgReserved:
		return verifyStandin(alg, pubWire, data, sig)
	default:
		return fmt.Errorf("%w: %s", ErrUnsupportedAlgorithm, alg)
	}
}
