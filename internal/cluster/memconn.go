package cluster

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memInbox bounds the bytes a memConn end holds unread: a longer write, a
// shipped fragment say, waits for the reader one inbox-sized piece at a time.
const memInbox = 64 << 10

// memConn is one end of a buffered in-memory net.Conn pair (memConnPair).
// A write appends to the peer's inbox and returns; a read takes what its
// own inbox holds, or waits for bytes, a close or its deadline. So a write
// is no rendezvous with a read, as over the standard library's synchronous
// pipe, and a deadline arms a timer only when a read or write waits under
// one earlier than the armed one. Closing either end closes the
// connection: the peer reads what was written before the close and then
// io.EOF, and every other read or write on either end fails with
// io.ErrClosedPipe. An expired deadline fails with os.ErrDeadlineExceeded.
type memConn struct {
	p *memPipe
	i int // this end; the peer is 1-i
}

// memPipe is what both ends share, under one lock: per end the bytes its
// peer wrote that it has not read (inbox[off:]), its deadlines (zero:
// none), and the alarm that wakes its waiters at the earliest deadline one
// of them holds (alarmAt; zero: not armed). A waiting read or write sleeps
// on cond, which every change it can wait for broadcasts.
type memPipe struct {
	mu   sync.Mutex
	cond sync.Cond
	ends [2]memEnd
}

type memEnd struct {
	inbox             []byte
	off               int
	closed            bool
	rdl, wdl, alarmAt time.Time
	alarm             *time.Timer
}

// memConnPair returns the two ends of a new in-memory connection.
func memConnPair() (net.Conn, net.Conn) {
	p := &memPipe{}
	p.cond.L = &p.mu
	return &memConn{p, 0}, &memConn{p, 1}
}

func (c *memConn) Read(b []byte) (int, error) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	me, peer := &c.p.ends[c.i], &c.p.ends[1-c.i]
	for {
		switch {
		case me.closed:
			return 0, io.ErrClosedPipe
		case expired(me.rdl):
			return 0, os.ErrDeadlineExceeded
		case me.off < len(me.inbox):
			n := copy(b, me.inbox[me.off:])
			if me.off += n; me.off == len(me.inbox) {
				me.inbox, me.off = me.inbox[:0], 0
			}
			c.p.cond.Broadcast() // room for the peer's waiting write
			return n, nil
		case peer.closed:
			return 0, io.EOF
		}
		c.p.wait(me, me.rdl)
	}
}

func (c *memConn) Write(b []byte) (n int, err error) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	me, peer := &c.p.ends[c.i], &c.p.ends[1-c.i]
	for {
		switch {
		case me.closed || peer.closed:
			return n, io.ErrClosedPipe
		case expired(me.wdl):
			return n, os.ErrDeadlineExceeded
		case n == len(b):
			return n, nil
		}
		k := min(memInbox-(len(peer.inbox)-peer.off), len(b)-n)
		if k == 0 {
			c.p.wait(me, me.wdl)
			continue
		}
		if peer.off > 0 && len(peer.inbox)+k > cap(peer.inbox) {
			peer.inbox, peer.off = peer.inbox[:copy(peer.inbox, peer.inbox[peer.off:])], 0
		}
		peer.inbox = append(peer.inbox, b[n:n+k]...)
		n += k
		c.p.cond.Broadcast() // bytes for the peer's waiting read
	}
}

// wait sleeps until the next broadcast, first arming me's alarm for dl
// unless an earlier one is set; a waiter the alarm woke before its own
// deadline arms it again.
func (p *memPipe) wait(me *memEnd, dl time.Time) {
	if !dl.IsZero() && (me.alarmAt.IsZero() || dl.Before(me.alarmAt)) {
		me.alarmAt = dl
		if me.alarm == nil {
			me.alarm = time.AfterFunc(time.Until(dl), func() {
				p.mu.Lock()
				defer p.mu.Unlock()
				me.alarmAt = time.Time{}
				p.cond.Broadcast()
			})
		} else {
			me.alarm.Reset(time.Until(dl))
		}
	}
	p.cond.Wait()
}

func expired(dl time.Time) bool { return !dl.IsZero() && !time.Now().Before(dl) }

func (c *memConn) Close() error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	me := &c.p.ends[c.i]
	if me.alarm != nil {
		me.alarm.Stop()
	}
	me.closed, me.inbox = true, nil
	c.p.cond.Broadcast()
	return nil
}

// setDeadlines sets the deadlines dls point to; the broadcast has the
// waiters judge theirs again.
func (c *memConn) setDeadlines(t time.Time, dls ...*time.Time) error {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	for _, dl := range dls {
		*dl = t
	}
	c.p.cond.Broadcast()
	return nil
}

func (c *memConn) SetDeadline(t time.Time) error {
	return c.setDeadlines(t, &c.p.ends[c.i].rdl, &c.p.ends[c.i].wdl)
}
func (c *memConn) SetReadDeadline(t time.Time) error  { return c.setDeadlines(t, &c.p.ends[c.i].rdl) }
func (c *memConn) SetWriteDeadline(t time.Time) error { return c.setDeadlines(t, &c.p.ends[c.i].wdl) }

// Both ends are the address "memory".
func (c *memConn) LocalAddr() net.Addr  { return c }
func (c *memConn) RemoteAddr() net.Addr { return c }
func (c *memConn) Network() string      { return "memory" }
func (c *memConn) String() string       { return "memory" }
