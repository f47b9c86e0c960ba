package sql

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"crdbserverless/internal/binenc"
	"crdbserverless/internal/txn"
)

// Session is one client connection's SQL state: settings, prepared
// statements, and the open explicit transaction, if any. Sessions serialize
// for dynamic session migration (§4.2.4): when idle, the proxy captures the
// session (settings + prepared statements + a revival token) and restores it
// on another SQL node without client re-authentication.
type Session struct {
	exec *Executor
	// slot is the storage of the session's explicit transactions: each
	// begins in it, and its Commit or Abort leaves it holding no key or
	// value. mu.txn points at it while one is open.
	slot txn.Txn

	mu struct {
		sync.Mutex
		user     string
		settings map[string]string
		prepared map[string]string // name -> statement text
		txn      *txn.Txn
		queries  int64
	}
}

// NewSession returns a session for the given user.
func NewSession(exec *Executor, user string) *Session {
	s := &Session{exec: exec}
	s.mu.user = user
	s.mu.settings = make(map[string]string)
	s.mu.prepared = make(map[string]string)
	return s
}

// Execute runs one statement, honoring the session's transaction state. The
// text is parsed once per executor: a text seen before reuses its parse. The
// Result is the caller's to keep, in storage of its own; a SELECT's Columns
// are the plan's, which the caller reads and never writes.
func (s *Session) Execute(ctx context.Context, sqlText string, args ...Datum) (*Result, error) {
	return s.ExecuteIn(ctx, new(Scratch), sqlText, args)
}

// ExecuteIn is Execute in the storage of sc, which a connection holds for its
// life and lends to one statement at a time: the Result is sc's, valid until
// sc.Release or the next statement runs in sc.
func (s *Session) ExecuteIn(ctx context.Context, sc *Scratch, sqlText string, args []Datum) (*Result, error) {
	p, err := s.exec.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.mu.queries++
	s.mu.Unlock()
	switch st := p.stmt.(type) {
	case *BeginTxn:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.mu.txn != nil {
			return nil, errors.New("sql: transaction already open")
		}
		s.exec.coord.BeginIn(&s.slot)
		s.mu.txn = &s.slot
		return sc.result(), nil
	case *CommitTxn:
		s.mu.Lock()
		t := s.mu.txn
		s.mu.txn = nil
		s.mu.Unlock()
		if t == nil {
			return nil, errors.New("sql: no transaction open")
		}
		if err := t.Commit(ctx); err != nil {
			return nil, err
		}
		return sc.result(), nil
	case *RollbackTxn:
		s.mu.Lock()
		t := s.mu.txn
		s.mu.txn = nil
		s.mu.Unlock()
		if t == nil {
			return nil, errors.New("sql: no transaction open")
		}
		if err := t.Abort(ctx); err != nil {
			return nil, err
		}
		return sc.result(), nil
	case *SetVar:
		v, err := evalExpr(&evalEnv{args: args}, st.Value)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.mu.settings[st.Name] = v.String()
		s.mu.Unlock()
		return sc.result(), nil
	default:
		s.mu.Lock()
		t := s.mu.txn
		s.mu.Unlock()
		res, err := s.exec.ExecuteStmt(ctx, p, args, t, sc)
		if err != nil && t != nil {
			// A failed statement poisons the explicit transaction.
			//lint:allow faulterr the statement error is what the client sees; a failed abort only leaves intents for the next reader to resolve
			_ = t.Abort(ctx)
			s.mu.Lock()
			s.mu.txn = nil
			s.mu.Unlock()
		}
		return res, err
	}
}

// CachedText returns the statement text equal to b that the session's
// executor holds parsed, if there is one, without copying b.
func (s *Session) CachedText(b []byte) (string, bool) { return s.exec.stmts.cachedText(b) }

// Prepare registers a named prepared statement. The name maps to the text,
// which is what migrates; the executor keeps the parse.
//
//lint:allow deadsurface paper §4.2.4: prepared statements migrate with the session; TestSessionSerializeRestore pins it
func (s *Session) Prepare(name, sqlText string) error {
	if _, err := s.exec.Prepare(sqlText); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mu.prepared[name] = sqlText
	return nil
}

// ExecutePrepared runs a previously prepared statement with arguments.
//
//lint:allow deadsurface paper §4.2.4: a restored session runs the statements it prepared before migrating; TestPreparedStatements pins it
func (s *Session) ExecutePrepared(ctx context.Context, name string, args ...Datum) (*Result, error) {
	s.mu.Lock()
	text, ok := s.mu.prepared[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("sql: prepared statement %q not found", name)
	}
	return s.Execute(ctx, text, args...)
}

// SerializedSession is the migratable snapshot of a session: client settings,
// prepared statements, and a revival token that lets the proxy resume the
// session on a new SQL node without client re-authentication (§4.2.4).
type SerializedSession struct {
	User         string
	Settings     map[string]string
	Prepared     map[string]string
	RevivalToken string
}

// ErrSessionBusy is returned when serializing a session with an open
// transaction: migration only happens while the session is idle.
var ErrSessionBusy = errors.New("sql: session has an open transaction; not idle")

// Serialize captures the session for migration. secret is the cluster's
// shared revival-token key.
func (s *Session) Serialize(secret []byte) (*SerializedSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mu.txn != nil {
		return nil, ErrSessionBusy
	}
	out := &SerializedSession{
		User:         s.mu.user,
		Settings:     make(map[string]string, len(s.mu.settings)),
		Prepared:     make(map[string]string, len(s.mu.prepared)),
		RevivalToken: MakeRevivalToken(secret, s.mu.user),
	}
	for k, v := range s.mu.settings {
		out.Settings[k] = v
	}
	for k, v := range s.mu.prepared {
		out.Prepared[k] = v
	}
	return out, nil
}

// RestoreSession validates the revival token and reconstructs the session on
// a new executor (SQL node).
func RestoreSession(exec *Executor, ser *SerializedSession, secret []byte) (*Session, error) {
	if !ValidateRevivalToken(secret, ser.RevivalToken, ser.User) {
		return nil, errors.New("sql: invalid revival token")
	}
	s := NewSession(exec, ser.User)
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range ser.Settings {
		s.mu.settings[k] = v
	}
	for k, v := range ser.Prepared {
		s.mu.prepared[k] = v
	}
	return s, nil
}

// Encode serializes the snapshot for transport through the proxy: User
// string, Settings, Prepared (each a count, then per entry the key and the
// value as strings, keys strictly ascending), RevivalToken string. Equal
// snapshots encode to equal bytes.
func (ss *SerializedSession) Encode() []byte {
	b := binenc.AppendString(nil, ss.User)
	b = binenc.AppendStringMap(b, ss.Settings)
	b = binenc.AppendStringMap(b, ss.Prepared)
	return binenc.AppendString(b, ss.RevivalToken)
}

// DecodeSerializedSession parses a transported session snapshot. The bytes
// arrive from another process through the proxy, so a malformed snapshot is
// an error and allocates no more than its own length.
func DecodeSerializedSession(b []byte) (*SerializedSession, error) {
	r := binenc.NewReader(b)
	ss := &SerializedSession{User: r.Str(), Settings: r.StringMap(), Prepared: r.StringMap(), RevivalToken: r.Str()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("sql: decoding session snapshot: %w", err)
	}
	return ss, nil
}

// MakeRevivalToken derives the internal authentication credential embedded
// in serialized sessions.
func MakeRevivalToken(secret []byte, user string) string {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("revival:" + user))
	return hex.EncodeToString(mac.Sum(nil))
}

// ValidateRevivalToken checks a revival token in constant time.
func ValidateRevivalToken(secret []byte, token, user string) bool {
	want := MakeRevivalToken(secret, user)
	return hmac.Equal([]byte(want), []byte(token))
}
